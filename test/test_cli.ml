(* The built stc_repro binary on bad input: each case must fail with a
   defined exit code and message before the pipeline is built, which
   prints its first line to stdout — so stdout stays empty. *)

let binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/stc_repro.exe")

(* A fresh scratch directory, removed afterwards. *)
let with_tmp f =
  Test_store.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  f dir

(* Exit code, stdout and stderr of one run. *)
let run args =
  with_tmp @@ fun dir ->
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process binary
      (Array.of_list (binary :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "signal %d" s
  in
  (code, Test_store.read_file out, Test_store.read_file err)

(* A path below a regular file: no directory can be created there. *)
let with_file_parent f =
  with_tmp @@ fun dir ->
  let file = Filename.concat dir "plain" in
  Test_store.write_file file "";
  f (Filename.concat file "sub")

let expect ~code ~err args =
  let c, out, e = run args in
  Alcotest.(check int) "exit code" code c;
  Alcotest.(check string) "nothing built" "" out;
  Alcotest.(check string) "message" err e

let test_branch_threshold () =
  expect ~code:1
    ~err:"stc_repro: Stc.params: branch_threshold must be in [0, 1], got 7\n"
    [ "simulate"; "--quick"; "--branch-threshold"; "7" ]

let test_store_under_file () =
  with_file_parent @@ fun path ->
  expect ~code:1
    ~err:
      (Printf.sprintf "stc_repro: cannot use store directory %s: %s\n" path
         (Unix.error_message Unix.ENOTDIR))
    [ "simulate"; "--quick"; "--store"; path ]

let test_unknown_layout () =
  expect ~code:1
    ~err:
      (Printf.sprintf
         "stc_repro: unknown layout algorithm \"bogus\" (valid: %s)\n"
         (String.concat ", "
            (List.map
               (fun a -> a.Stc_layout.Algo.name)
               (Stc_layout.Algo.all ()))))
    [ "simulate"; "--quick"; "--layouts"; "bogus" ]

let test_metrics_under_file () =
  with_file_parent @@ fun path ->
  expect ~code:1
    ~err:
      (Printf.sprintf "stc_repro: cannot write metrics file: %s: %s\n" path
         (Unix.error_message Unix.ENOTDIR))
    [ "simulate"; "--quick"; "--metrics"; path ]

let test_jobs_not_int () =
  let code, out, err = run [ "simulate"; "--quick"; "--jobs"; "abc" ] in
  Alcotest.(check int) "exit code" 124 code;
  Alcotest.(check string) "nothing built" "" out;
  Alcotest.(check bool) "names the option" true
    (Astring_like.contains err
       "option '--jobs': invalid value 'abc', expected an integer")

(* Below a positive finite scale every table clamps to one row, so each
   such value would silently run the same tiny data set. *)
let test_scale_not_positive () =
  List.iter
    (fun sf ->
      expect ~code:1
        ~err:
          (Printf.sprintf
             "stc_repro: Datagen.generate: sf must be finite and > 0, got %s\n"
             sf)
        [ "simulate"; "--quick"; "--scale=" ^ sf ])
    [ "inf"; "nan"; "0"; "-1" ]

(* Every table keeps at least one row, so each scale factor that gives
   orders, the largest, fewer than two rows runs the same data set. *)
let test_scale_below_two_orders () =
  expect ~code:1
    ~err:
      "stc_repro: Datagen.generate: sf must be at least \
       1.3333333333333334e-06 (below it every table has one row), got \
       1e-07\n"
    [ "simulate"; "--quick"; "--layouts"; "ops"; "--scale=1e-7"; "--seed"; "1" ]

let test_frames_below_one () =
  List.iter
    (fun frames ->
      expect ~code:1
        ~err:
          (Printf.sprintf
             "stc_repro: Bufmgr.create: frames must be >= 1, got %s\n" frames)
        [ "simulate"; "--quick"; "--frames=" ^ frames ])
    [ "0"; "-3" ]

let suite =
  [
    Alcotest.test_case "branch threshold outside [0, 1]" `Quick
      test_branch_threshold;
    Alcotest.test_case "store path under a regular file" `Quick
      test_store_under_file;
    Alcotest.test_case "unknown layout lists the valid names" `Quick
      test_unknown_layout;
    Alcotest.test_case "metrics path under a regular file" `Quick
      test_metrics_under_file;
    Alcotest.test_case "jobs not an integer" `Quick test_jobs_not_int;
    Alcotest.test_case "scale not finite and positive" `Quick
      test_scale_not_positive;
    Alcotest.test_case "scale below two orders rows" `Quick
      test_scale_below_two_orders;
    Alcotest.test_case "frames below 1" `Quick test_frames_below_one;
  ]
