module Kernel = Stc_synth.Kernel
module Database = Stc_db.Database
module Datagen = Stc_dbdata.Datagen
module Recorder = Stc_trace.Recorder
module Check = Stc_trace.Check
module Walker = Stc_trace.Walker
module Probe = Stc_trace.Probe

(* Shared fixtures: tiny kernel config (fast to build) and a small data
   set; computed once. *)
let small_config =
  {
    Kernel.default_config with
    Kernel.n_l2 = 40;
    n_l3 = 60;
    n_l4 = 30;
    n_parser = 40;
    n_optimizer = 30;
    n_filler = 120;
  }

let kernel = lazy (Kernel.build ~config:small_config ())

let data = lazy (Datagen.generate ~sf:0.001 ())

let db_btree = lazy (Database.load (Lazy.force data) ~kind:Database.Btree_db)

let db_hash = lazy (Database.load (Lazy.force data) ~kind:Database.Hash_db)

let oracle = lazy (Stc_workload.Oracle.of_data (Lazy.force data))

let sorted_rows rows = List.sort compare rows

let run_query_untraced db q =
  Stc_db.Exec.run db (Stc_workload.Queries.plan db q)

let check_query_against_oracle db_lazy label q () =
  let db = Lazy.force db_lazy in
  let plan = Stc_workload.Queries.plan db q in
  let engine = Stc_db.Exec.run db plan in
  let reference = Stc_workload.Oracle.run (Lazy.force oracle) plan in
  Alcotest.(check int)
    (Printf.sprintf "%s Q%d row count" label q)
    (List.length reference) (List.length engine);
  let pp_rows rows =
    String.concat "; "
      (List.map
         (fun r ->
           "[" ^ String.concat "," (List.map string_of_int (Array.to_list r)) ^ "]")
         rows)
  in
  let e = sorted_rows (List.map Array.to_list engine) in
  let r = sorted_rows (List.map Array.to_list reference) in
  if e <> r then
    Alcotest.failf "%s Q%d rows differ\nengine:    %s\nreference: %s" label q
      (pp_rows engine) (pp_rows reference)

let test_all_queries_btree () =
  List.iter
    (fun q -> check_query_against_oracle db_btree "btree" q ())
    Stc_workload.Queries.all

let test_all_queries_hash () =
  List.iter
    (fun q -> check_query_against_oracle db_hash "hash" q ())
    Stc_workload.Queries.all

let test_traced_run_legal () =
  let kernel = Lazy.force kernel in
  let db = Lazy.force db_btree in
  let recorder =
    Stc_workload.Driver.record ~kernel ~walker_seed:11L
      ~dbs:[ ("btree", db) ]
      ~queries:[ 3; 6 ] ()
  in
  Alcotest.(check bool) "trace nonempty" true (Recorder.length recorder > 1000);
  match
    Check.check_all kernel.Kernel.program (fun f ->
        Stc_trace.Source.iter (Stc_trace.Source.of_recorder recorder) f)
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_traced_matches_untraced () =
  (* Tracing must not change query results. *)
  let kernel = Lazy.force kernel in
  let db = Lazy.force db_btree in
  let plan = Stc_workload.Queries.plan db 3 in
  let untraced = Stc_db.Exec.run db plan in
  let walker = Kernel.make_walker kernel ~seed:5L ~sink:(fun _ -> ()) in
  let traced = Probe.with_walker walker (fun () -> Stc_db.Exec.run db plan) in
  Alcotest.(check bool) "same results" true (untraced = traced)

let test_trace_deterministic () =
  let kernel = Lazy.force kernel in
  let db = Lazy.force db_btree in
  let record () =
    Stc_workload.Driver.record ~kernel ~walker_seed:42L
      ~dbs:[ ("btree", db) ]
      ~queries:[ 6; 12 ] ()
  in
  let r1 = record () and r2 = record () in
  Alcotest.(check int64) "same trace" (Recorder.hash r1) (Recorder.hash r2)

let test_kernel_program_valid () =
  let kernel = Lazy.force kernel in
  match Stc_cfg.Program.validate kernel.Kernel.program with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_all_queries_traced_both_dbs () =
  (* every query runs to completion under tracing on both databases and
     yields a legal walk *)
  let kernel = Lazy.force kernel in
  let dbs = [ ("btree", Lazy.force db_btree); ("hash", Lazy.force db_hash) ] in
  let recorder =
    Stc_workload.Driver.record ~kernel ~walker_seed:3L ~dbs
      ~queries:Stc_workload.Queries.all ()
  in
  Alcotest.(check int) "all jobs marked" 24
    (List.length (Recorder.marks recorder));
  match
    Check.check_all kernel.Kernel.program (fun f ->
        Stc_trace.Source.iter (Stc_trace.Source.of_recorder recorder) f)
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_bufmgr_traffic () =
  let db = Lazy.force db_btree in
  ignore (run_query_untraced db 6);
  let bm = Database.bufmgr db in
  Alcotest.(check bool) "buffer manager saw traffic" true
    (Stc_db.Bufmgr.hits bm + Stc_db.Bufmgr.misses bm > 0)

let suite =
  [
    Alcotest.test_case "kernel program valid" `Quick test_kernel_program_valid;
    Alcotest.test_case "all queries vs oracle (btree)" `Slow
      test_all_queries_btree;
    Alcotest.test_case "all queries vs oracle (hash)" `Slow
      test_all_queries_hash;
    Alcotest.test_case "traced run is a legal walk" `Quick
      test_traced_run_legal;
    Alcotest.test_case "tracing preserves results" `Quick
      test_traced_matches_untraced;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "all queries traced on both dbs" `Slow
      test_all_queries_traced_both_dbs;
    Alcotest.test_case "buffer manager traffic" `Quick test_bufmgr_traffic;
  ]
