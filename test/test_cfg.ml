open Stc_cfg

(* A tiny hand-built two-procedure program:
   p0: b0 (cond) -> b1 (call p1) -> b2 (ret), taken edge b0 -> b2
   p1: b3 (ret) *)
let tiny () =
  let b = Builder.create () in
  let p0 = Builder.declare_proc b ~name:"main" ~subsystem:Proc.Executor in
  let p1 = Builder.declare_proc b ~name:"leaf" ~subsystem:Proc.Utility in
  let b0 = Builder.new_block b ~pid:p0 ~size:3 in
  let b1 = Builder.new_block b ~pid:p0 ~size:2 in
  let b2 = Builder.new_block b ~pid:p0 ~size:1 in
  let b3 = Builder.new_block b ~pid:p1 ~size:4 in
  Builder.set_term b b0 (Terminator.Cond { taken = b2; fallthru = b1 });
  Builder.set_term b b1 (Terminator.Call { callee = p1; next = b2 });
  Builder.set_term b b2 Terminator.Ret;
  Builder.set_term b b3 Terminator.Ret;
  Builder.finish_proc b ~pid:p0 ~entry:b0 ~blocks:[| b0; b1; b2 |];
  Builder.finish_proc b ~pid:p1 ~entry:b3 ~blocks:[| b3 |];
  Builder.build b

let test_static_counts () =
  let p = tiny () in
  let c = Program.static_counts p in
  Alcotest.(check int) "procs" 2 c.Program.n_procs;
  Alcotest.(check int) "blocks" 4 c.Program.n_blocks;
  Alcotest.(check int) "instrs" 10 c.Program.n_instrs

let test_validate_ok () =
  let p = tiny () in
  match Program.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_classification () =
  let p = tiny () in
  let kind i = Block.kind p.Program.blocks.(i) in
  Alcotest.(check string) "b0 branch" "Branch" (Terminator.kind_name (kind 0));
  Alcotest.(check string) "b1 call" "Subroutine call"
    (Terminator.kind_name (kind 1));
  Alcotest.(check string) "b2 ret" "Subroutine return"
    (Terminator.kind_name (kind 2))

let test_builder_rejects_unreachable () =
  let b = Builder.create () in
  let p0 = Builder.declare_proc b ~name:"p" ~subsystem:Proc.Other in
  let b0 = Builder.new_block b ~pid:p0 ~size:1 in
  let b1 = Builder.new_block b ~pid:p0 ~size:1 in
  Builder.set_term b b0 Terminator.Ret;
  Builder.set_term b b1 Terminator.Ret;
  Builder.finish_proc b ~pid:p0 ~entry:b0 ~blocks:[| b0; b1 |];
  match Builder.build b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected unreachable-block failure"

let test_builder_rejects_cross_proc_edge () =
  let b = Builder.create () in
  let p0 = Builder.declare_proc b ~name:"p" ~subsystem:Proc.Other in
  let p1 = Builder.declare_proc b ~name:"q" ~subsystem:Proc.Other in
  let b0 = Builder.new_block b ~pid:p0 ~size:1 in
  let b1 = Builder.new_block b ~pid:p1 ~size:1 in
  Builder.set_term b b0 (Terminator.Jump b1);
  Builder.set_term b b1 Terminator.Ret;
  Builder.finish_proc b ~pid:p0 ~entry:b0 ~blocks:[| b0 |];
  Builder.finish_proc b ~pid:p1 ~entry:b1 ~blocks:[| b1 |];
  match Builder.build b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected cross-procedure edge failure"

let test_builder_rejects_unfinished () =
  let b = Builder.create () in
  let _p0 = Builder.declare_proc b ~name:"p" ~subsystem:Proc.Other in
  match Builder.build b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected unfinished-procedure failure"

let suite =
  [
    Alcotest.test_case "static counts" `Quick test_static_counts;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "rejects unreachable" `Quick
      test_builder_rejects_unreachable;
    Alcotest.test_case "rejects cross-proc edge" `Quick
      test_builder_rejects_cross_proc_edge;
    Alcotest.test_case "rejects unfinished" `Quick test_builder_rejects_unfinished;
  ]
