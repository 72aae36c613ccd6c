(* The built stc_repro binary on bad input: each case must fail with a
   defined exit code and message before the pipeline is built, which
   prints its first line to stdout — so stdout stays empty. Then one
   small run with and without --progress, the built tools/bench_diff on
   result lines and a spec the tests write, tools/metrics_diff on
   exports the tests write, tools/golden without its snapshots, and
   tools/trace_report on a trace the test writes. *)

let built path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name path)

let binary = built "bin/stc_repro.exe"

let bench_diff_exe = built "tools/bench_diff.exe"

let metrics_diff_exe = built "tools/metrics_diff.exe"

let golden_exe = built "tools/golden.exe"

let trace_report_exe = built "tools/trace_report.exe"

(* A fresh scratch directory, removed afterwards. *)
let with_tmp f =
  Test_store.with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  f dir

(* Exit code, stdout and stderr of one run. *)
let run ?(binary = binary) args =
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

(* "<name>: <seconds>s" -> name *)
let progress_name line =
  let tail i = String.sub line i (String.length line - i) in
  match String.rindex_opt line ':' with
  | Some i when Scanf.sscanf_opt (tail i) ": %fs%!" ignore = Some () ->
    String.sub line 0 i
  | _ -> Alcotest.failf "not a <name>: <seconds>s line: %S" line

(* --progress prints one line per Run.span as it ends: the names of the
   trace's B/E slices but the pool's chunks and the engine's own, as a
   multiset. It changes no output: stdout holds no timings, so the two
   runs print the same once each one's own file names are masked. Without
   it stderr stays empty. *)
let test_progress () =
  with_tmp @@ fun dir ->
  let path name = Filename.concat dir name in
  let simulate tag flags =
    let code, out, err =
      run
        ([ "simulate"; "--quick"; "--seed"; "1"; "--scale"; "0.00007";
           "--layouts"; "ops"; "--jobs"; "2"; "--trace"; path (tag ^ ".json");
           "--metrics"; path (tag ^ ".jsonl") ]
        @ flags)
    in
    Alcotest.(check int) (tag ^ " exit code") 0 code;
    (Astring_like.replace ~sub:(path tag) ~by:(path "RUN") out, err)
  in
  let plain_out, plain_err = simulate "plain" [] in
  Alcotest.(check string) "stderr without --progress" "" plain_err;
  let out, err = simulate "progress" [ "--progress" ] in
  Alcotest.(check string) "stdout equal" plain_out out;
  Alcotest.(check bool) "exports cmp-equal" true
    (Test_store.read_file (path "plain.jsonl")
    = Test_store.read_file (path "progress.jsonl"));
  let lines =
    match List.rev (String.split_on_char '\n' err) with
    | "" :: rev -> List.rev rev
    | _ -> Alcotest.failf "stderr does not end in a newline: %S" err
  in
  let spans =
    match Stc_obs.Json.of_string (Test_store.read_file (path "progress.json")) with
    | Stc_obs.Json.List evs ->
      List.filter (fun e -> Test_obs_trace.str "ph" e = "B") evs
      |> List.map (Test_obs_trace.str "name")
      |> List.filter (fun n ->
             n <> "pool.chunk" && not (String.starts_with ~prefix:"engine." n))
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  Alcotest.(check bool) "some spans" true (List.length spans > 10);
  Alcotest.(check (list string)) "one line per span"
    (List.sort compare spans)
    (List.sort compare (List.map progress_name lines))

(* tools/bench_diff against a spec of the tests' own, so that a change
   to BENCHMARK.json's bounds cannot move these cases. *)
let spec =
  {|{"end_to_end": [{"name": "grid_s", "better": "lower", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.25}],
     "per_layer": [{"name": "fetch.slot.ideal.mblocks_per_s", "better": "higher"},
                   {"name": "profile.mblocks_per_s", "better": "higher"}]}|}

let base =
  [ ("grid_s", 2.0); ("rate", 10.0); ("fetch.slot.ideal.mblocks_per_s", 50.0);
    ("profile.mblocks_per_s", 40.0) ]

(* One run.sh result line. *)
let result ?(correct = true) metrics =
  let metric (n, v) = Printf.sprintf {|"%s": {"value": %g, "unit": "u"}|} n v in
  Printf.sprintf {|{"correct": %b, "attempted": 3, "failed": 0, "metrics": {%s}}|}
    correct (String.concat ", " (List.map metric metrics))

(* [base] with [name] scaled by each factor, one line per factor. *)
let scaled name =
  List.map (fun f ->
      result (List.map (fun (n, v) -> (n, if n = name then v *. f else v)) base))

(* bench_diff on [base_lines] (two [base] lines) against [head]: its
   exit code, and whether its stderr names [names]. *)
let gate ?(names = "") ?(base_lines = [ result base; result base ]) ~code head
    =
  with_tmp @@ fun dir ->
  let file name lines =
    let path = Filename.concat dir name in
    Test_store.write_file path (String.concat "\n" lines);
    path
  in
  let c, _, err =
    run ~binary:bench_diff_exe
      [ "--spec"; file "spec.json" [ spec ];
        file "base.jsonl" base_lines; file "head.jsonl" head ]
  in
  Alcotest.(check int) (names ^ " exit code") code c;
  Alcotest.(check bool) ("names " ^ names) true (Astring_like.contains err names)

let test_bench_identical () = gate ~code:0 [ result base ]

(* Medians: one outlier line moves nothing. *)
let test_bench_end_to_end () =
  gate ~code:1 ~names:"grid_s" (scaled "grid_s" [ 1.3; 1.3; 0.9 ]);
  gate ~code:0 (scaled "grid_s" [ 1.2; 1.2; 3.0 ]);
  gate ~code:1 ~names:"rate" (scaled "rate" [ 0.7 ])

(* Printed only, replay throughput included. *)
let test_bench_per_layer () =
  gate ~code:0 (scaled "fetch.slot.ideal.mblocks_per_s" [ 0.7 ]);
  gate ~code:0 (scaled "profile.mblocks_per_s" [ 0.7 ])

let test_bench_missing_or_incorrect () =
  let without name = [ result (List.remove_assoc name base) ] in
  gate ~code:1 ~names:"grid_s: missing from HEAD" (without "grid_s");
  gate ~code:1 ~names:"grid_s: missing from BASE" ~base_lines:(without "grid_s")
    [ result base ];
  gate ~code:0 ~base_lines:(without "profile.mblocks_per_s") [ result base ];
  gate ~code:1 ~names:"correct false" [ result ~correct:false base ]

let test_bench_malformed () =
  gate ~code:2 [ result base; {|{"correct": tru|} ];
  gate ~code:2 ~names:"no result lines" [];
  let code, _, _ = run ~binary:bench_diff_exe [ "--spec"; "absent"; "a"; "b" ] in
  Alcotest.(check int) "missing file" 2 code

(* tools/metrics_diff on two exports, each of a registry holding
   [(runs, hits, warn)]: an [engine.runs] and a [store.hits] counter,
   and with [warn] a [store.warning] event. Checks the exit code, and
   whether the output names [names]. *)
let metrics_diff ?(names = "") ?(args = []) ~code a b =
  with_tmp @@ fun dir ->
  let export name (runs, hits, warn) =
    let reg = Stc_obs.Registry.create () in
    Stc_obs.Registry.add reg "engine.runs" runs;
    Stc_obs.Registry.add reg "store.hits" hits;
    if warn then Stc_obs.Registry.event reg ~kind:"store.warning" [];
    let path = Filename.concat dir name in
    Stc_obs.Export.write_file reg path;
    path
  in
  let c, out, err =
    run ~binary:metrics_diff_exe
      (export "a.jsonl" a :: export "b.jsonl" b :: args)
  in
  Alcotest.(check int) (names ^ " exit code") code c;
  Alcotest.(check bool) ("names " ^ names) true
    (Astring_like.contains (out ^ err) names)

let cold = (3, 4, false)

let test_metrics_diff_exact () =
  metrics_diff ~code:0 ~names:"no drift" cold cold;
  metrics_diff ~code:1 ~names:"metric:engine.runs" cold (4, 4, false);
  metrics_diff ~code:1 cold (3, 9, true);
  metrics_diff ~code:0 ~args:[ "--ignore"; "store." ] cold (3, 9, true)

let test_metrics_diff_errors () =
  metrics_diff ~code:2 ~names:"usage" ~args:[ "--tolerance"; "1" ] cold cold;
  with_tmp @@ fun dir ->
  let empty = Filename.concat dir "empty.jsonl" in
  Test_store.write_file empty "";
  let code, _, err = run ~binary:metrics_diff_exe [ empty; empty ] in
  Alcotest.(check int) "empty file" 2 code;
  Alcotest.(check bool) "names it" true (Astring_like.contains err "no records");
  let absent = Filename.concat dir "absent" in
  let code, _, _ = run ~binary:metrics_diff_exe [ absent; empty ] in
  Alcotest.(check int) "missing file" 2 code

(* A missing snapshot directory fails before the pipeline is built. *)
let test_golden_missing_dir () =
  with_tmp @@ fun dir ->
  let missing = Filename.concat dir "absent" in
  let code, out, err = run ~binary:golden_exe [ "--golden"; missing ] in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check string) "nothing built" "" out;
  Alcotest.(check bool) "names the directory" true
    (Astring_like.contains err ("snapshot directory " ^ missing ^ " missing"))

(* trace_report's phase table lists the calling domain's (tid 0)
   depth-0 slices only: a pool domain's chunk is pool utilization, not a
   phase. The fused sweeps are one summary line of their own. *)
let test_trace_report_phases () =
  with_tmp @@ fun dir ->
  let trace = Filename.concat dir "trace.json" in
  Test_store.write_file trace
    {|[{"name":"datagen","ph":"B","ts":0,"pid":0,"tid":0},
{"name":"pool.chunk","ph":"B","ts":10,"pid":0,"tid":1},
{"name":"engine.fused","ph":"X","ts":12,"dur":5,"pid":0,"tid":1,"args":{"bytes":3}},
{"name":"pool.chunk","ph":"E","ts":20,"pid":0,"tid":1},
{"name":"datagen","ph":"E","ts":30,"pid":0,"tid":0}]
|};
  let code, out, _ = run ~binary:trace_report_exe [ trace ] in
  Alcotest.(check int) "exit code" 0 code;
  List.iter
    (fun (what, text, listed) ->
      Alcotest.(check bool) what listed (Astring_like.contains out text))
    [ ("the phase", "datagen", true);
      ("the chunk as a phase", "pool.chunk", false);
      ("the chunk as pool time", "domain-1", true) ];
  Alcotest.(check bool) "the sweeps' summary line" true
    (List.exists
       (String.starts_with ~prefix:"1 sweep(s) fusing 3 cell(s)")
       (String.split_on_char '\n' out))

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
    Alcotest.test_case "progress prints the traced spans" `Quick test_progress;
    Alcotest.test_case "bench_diff identical sides" `Quick test_bench_identical;
    Alcotest.test_case "bench_diff end-to-end medians" `Quick test_bench_end_to_end;
    Alcotest.test_case "bench_diff per-layer not gated" `Quick
      test_bench_per_layer;
    Alcotest.test_case "bench_diff missing or incorrect" `Quick
      test_bench_missing_or_incorrect;
    Alcotest.test_case "bench_diff malformed input" `Quick test_bench_malformed;
    Alcotest.test_case "metrics_diff exact but for --ignore" `Quick
      test_metrics_diff_exact;
    Alcotest.test_case "metrics_diff usage and input errors" `Quick
      test_metrics_diff_errors;
    Alcotest.test_case "golden missing snapshot directory" `Quick
      test_golden_missing_dir;
    Alcotest.test_case "trace_report phases are the caller's" `Quick
      test_trace_report_phases;
  ]
