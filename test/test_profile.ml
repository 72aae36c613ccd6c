module P = Stc_profile
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator

(* A 3-block program: b0 (cond) -> b1 -> b2, taken edge b0 -> b2. *)
let prog3 () =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Executor in
  let b0 = Builder.new_block b ~pid:p ~size:2 in
  let b1 = Builder.new_block b ~pid:p ~size:3 in
  let b2 = Builder.new_block b ~pid:p ~size:4 in
  Builder.set_term b b0 (Terminator.Cond { taken = b2; fallthru = b1 });
  Builder.set_term b b1 (Terminator.Fall b2);
  Builder.set_term b b2 Terminator.Ret;
  Builder.finish_proc b ~pid:p ~entry:b0 ~blocks:[| b0; b1; b2 |];
  (Builder.build b, b0, b1, b2)

let test_counts_and_edges () =
  let prog, b0, b1, b2 = prog3 () in
  let p = P.Profile.create prog in
  List.iter (P.Profile.sink p) [ b0; b1; b2; b0; b2 ];
  Alcotest.(check (array int)) "block counts" [| 2; 1; 2 |] (P.Profile.counts p);
  Alcotest.(check int) "edge b0->b1" 1 (P.Profile.edge_count p ~src:b0 ~dst:b1);
  Alcotest.(check int) "edge b0->b2" 1 (P.Profile.edge_count p ~src:b0 ~dst:b2);
  Alcotest.(check int) "edge b2->b0" 1 (P.Profile.edge_count p ~src:b2 ~dst:b0);
  Alcotest.(check int) "no edge b1->b0" 0
    (P.Profile.edge_count p ~src:b1 ~dst:b0);
  Alcotest.(check int) "total instrs" (2 + 3 + 4 + 2 + 4)
    (P.Profile.total_instrs p);
  Alcotest.(check (list (pair int int)))
    "successors sorted"
    [ (b1, 1); (b2, 1) ]
    (P.Profile.successors p b0)

let test_footprint () =
  let prog, b0, b1, _ = prog3 () in
  let p = P.Profile.create prog in
  List.iter (P.Profile.sink p) [ b0; b1 ];
  let fp = P.Footprint.compute p in
  Alcotest.(check int) "blocks executed" 2 fp.P.Footprint.blocks_executed;
  Alcotest.(check int) "instrs executed" 5 fp.P.Footprint.instrs_executed;
  Alcotest.(check int) "procs executed" 1 fp.P.Footprint.procs_executed

let test_popularity () =
  let prog, b0, b1, b2 = prog3 () in
  let p = P.Profile.create prog in
  for _ = 1 to 90 do
    P.Profile.sink p b0
  done;
  for _ = 1 to 9 do
    P.Profile.sink p b1
  done;
  P.Profile.sink p b2;
  let pop = P.Popularity.compute p in
  Alcotest.(check int) "1 block for 90%" 1 (P.Popularity.blocks_for_share pop 0.9);
  Alcotest.(check int) "2 blocks for 99%" 2 (P.Popularity.blocks_for_share pop 0.99);
  Alcotest.(check (list (pair int (float 1e-9))))
    "curve" [ (1, 0.9); (2, 0.99); (3, 1.0) ]
    (P.Popularity.curve pop ~max_blocks:3 ~step:1)

let test_reuse_distance () =
  let prog, b0, b1, b2 = prog3 () in
  let member = Array.make 3 false in
  member.(b0) <- true;
  let r = P.Reuse.create prog ~member in
  (* b0 (2) b1 (3) b0 : distance 5 instructions *)
  List.iter (P.Reuse.sink r) [ b0; b1; b0 ];
  Alcotest.(check int) "one interval" 1 (P.Reuse.samples r);
  Alcotest.(check (float 1e-9)) "below 6" 1.0 (P.Reuse.mass_below r 8);
  Alcotest.(check (float 1e-9)) "not below 4" 0.0 (P.Reuse.mass_below r 4);
  ignore b2

(* The branch row's predictable share when b0 goes to b1 [to_b1] times
   and to b2 once; the fixed-behaviour threshold is 90%. *)
let branch_predictable ~to_b1 =
  let prog, b0, b1, b2 = prog3 () in
  let p = P.Profile.create prog in
  for _ = 1 to to_b1 do
    List.iter (P.Profile.sink p) [ b0; b1; b2 ]
  done;
  List.iter (P.Profile.sink p) [ b0; b2 ];
  let d = P.Determinism.compute p in
  (List.find
     (fun r -> r.P.Determinism.kind = Terminator.Branch)
     d.P.Determinism.rows)
    .P.Determinism.predictable_pct

let test_determinism_classifies () =
  Alcotest.(check (float 0.01)) "branch fixed at 9 of 10" 100.0
    (branch_predictable ~to_b1:9);
  Alcotest.(check (float 0.01)) "not fixed at 8 of 9" 0.0
    (branch_predictable ~to_b1:8)

let test_call_edges () =
  let b = Builder.create () in
  let p0 = Builder.declare_proc b ~name:"caller" ~subsystem:Stc_cfg.Proc.Executor in
  let p1 = Builder.declare_proc b ~name:"callee" ~subsystem:Stc_cfg.Proc.Utility in
  let c0 = Builder.new_block b ~pid:p0 ~size:2 in
  let c1 = Builder.new_block b ~pid:p0 ~size:1 in
  let e0 = Builder.new_block b ~pid:p1 ~size:2 in
  Builder.set_term b c0 (Terminator.Call { callee = p1; next = c1 });
  Builder.set_term b c1 Terminator.Ret;
  Builder.set_term b e0 Terminator.Ret;
  Builder.finish_proc b ~pid:p0 ~entry:c0 ~blocks:[| c0; c1 |];
  Builder.finish_proc b ~pid:p1 ~entry:e0 ~blocks:[| e0 |];
  let prog = Builder.build b in
  let p = P.Profile.create prog in
  List.iter (P.Profile.sink p) [ c0; e0; c1 ];
  Alcotest.(check (list (triple int int int)))
    "call edge" [ (p0, p1, 1) ] (P.Profile.call_edges p)

let suite =
  [
    Alcotest.test_case "counts and edges" `Quick test_counts_and_edges;
    Alcotest.test_case "footprint" `Quick test_footprint;
    Alcotest.test_case "popularity" `Quick test_popularity;
    Alcotest.test_case "reuse distance" `Quick test_reuse_distance;
    Alcotest.test_case "determinism threshold" `Quick test_determinism_classifies;
    Alcotest.test_case "call edges" `Quick test_call_edges;
  ]
