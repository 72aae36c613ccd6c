open Stc_cfg
open Stc_trace

(* A small instrumented "engine": two probed routines and one auto helper.

   outer(n, flag):
     if n > 0 then inner(flag);
     while i > 0 do i-- done;
     helper_log()                      (auto-walked)

   inner(flag): if flag then ... else ... *)

module Eng = struct
  let k_outer = Probe.key "outer"

  let k_inner = Probe.key "inner"

  let skel_inner =
    Skeleton.
      [
        straight 2;
        if_else "flag" [ straight 4 ] [ straight 1 ];
      ]

  let skel_helper =
    Skeleton.
      [
        straight 1;
        if_ ~p:0.5 "h_cond" [ straight 2 ];
        while_ ~p:0.4 "h_loop" [ straight 1 ];
      ]

  let skel_outer =
    Skeleton.
      [
        straight 3;
        if_ "positive" [ straight 1; call "inner" ];
        while_ "more" [ straight 2 ];
        helper "helper_log";
        straight 1;
      ]

  let inner flag =
    Probe.routine k_inner @@ fun () ->
    if Probe.cond "flag" flag then ignore (1 + 1)

  let outer n flag =
    Probe.routine k_outer @@ fun () ->
    if Probe.cond "positive" (n > 0) then inner flag;
    let i = ref n in
    while Probe.cond "more" (!i > 0) do
      decr i
    done
end

let build () =
  let b = Builder.create () in
  let p_outer = Builder.declare_proc b ~name:"outer" ~subsystem:Proc.Executor in
  let p_inner = Builder.declare_proc b ~name:"inner" ~subsystem:Proc.Utility in
  let p_helper =
    Builder.declare_proc b ~name:"helper_log" ~subsystem:Proc.Utility
  in
  let resolve = Builder.pid_of_name b in
  let c_inner = Bytecode.compile b ~pid:p_inner ~resolve Eng.skel_inner in
  let c_helper = Bytecode.compile b ~pid:p_helper ~resolve Eng.skel_helper in
  let c_outer = Bytecode.compile b ~pid:p_outer ~resolve Eng.skel_outer in
  let program = Builder.build b in
  let code = Array.make (Array.length program.Program.procs) None in
  code.(p_outer) <- Some c_outer;
  code.(p_inner) <- Some c_inner;
  code.(p_helper) <- Some c_helper;
  (program, code)

let run_workload ?(on_block = ignore) ~seed () =
  let program, code = build () in
  let rec_ = Recorder.create () in
  let sink bid =
    on_block bid;
    Recorder.sink rec_ bid
  in
  let w = Walker.create ~program ~code ~seed ~sink in
  Probe.with_walker w (fun () ->
      Eng.outer 3 true;
      Eng.outer 0 false;
      Eng.outer 5 false);
  (program, rec_, w)

let test_trace_legal () =
  let program, rec_, _ = run_workload ~seed:1L () in
  match Check.check_all program (fun f -> Stc_trace.Source.iter (Stc_trace.Source.of_recorder rec_) f) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_trace_counts () =
  let emitted = ref 0 in
  let _, rec_, _ = run_workload ~on_block:(fun _ -> incr emitted) ~seed:1L () in
  Alcotest.(check bool) "nonempty" true (Recorder.length rec_ > 10);
  Alcotest.(check int) "walker count matches sink" (Recorder.length rec_)
    !emitted

let test_trace_deterministic () =
  let _, r1, _ = run_workload ~seed:7L () in
  let _, r2, _ = run_workload ~seed:7L () in
  Alcotest.(check int64) "same hash" (Recorder.hash r1) (Recorder.hash r2)

let test_trace_seed_changes_helper_walk () =
  let _, r1, _ = run_workload ~seed:7L () in
  let _, r2, _ = run_workload ~seed:8L () in
  (* The probed part is identical; the helper sampling should eventually
     differ. (It is astronomically unlikely that 3 helper walks coincide
     across seeds AND have the same length.) *)
  Alcotest.(check bool) "different traces" true
    (Recorder.hash r1 <> Recorder.hash r2 || Recorder.length r1 = Recorder.length r2)

let test_desync_wrong_site () =
  let program, code = build () in
  let w =
    Walker.create ~program ~code ~seed:1L ~sink:(fun _ -> ())
  in
  let raised = ref false in
  (try
     Probe.with_walker w (fun () ->
         Probe.routine Eng.k_outer (fun () ->
             ignore (Probe.cond "wrong_site" true)))
   with Walker.Desync _ -> raised := true);
  Alcotest.(check bool) "desync raised" true !raised

let test_desync_unexpected_enter () =
  let program, code = build () in
  let w = Walker.create ~program ~code ~seed:1L ~sink:(fun _ -> ()) in
  let raised = ref false in
  (try
     Probe.with_walker w (fun () ->
         Probe.routine Eng.k_outer (fun () ->
             (* inner may only be entered after the "positive" cond *)
             Eng.inner true))
   with Walker.Desync _ -> raised := true);
  Alcotest.(check bool) "desync raised" true !raised

let test_probes_inert_without_walker () =
  (* The same engine code must run untraced, and leave no walker
     installed: a fresh one still installs and records nothing. *)
  Eng.outer 4 true;
  Eng.outer 0 false;
  let program, code = build () in
  let rec_ = Recorder.create () in
  let w = Walker.create ~program ~code ~seed:1L ~sink:(Recorder.sink rec_) in
  Probe.with_walker w ignore;
  Alcotest.(check int) "nothing recorded" 0 (Recorder.length rec_)

let test_compiled_program_valid () =
  let program, _ = build () in
  match Program.validate program with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Property: random skeletons compile to valid programs, and auto-walking
   them yields legal traces. *)
let gen_skeleton : Skeleton.t QCheck.Gen.t =
  let open QCheck.Gen in
  let site_counter = ref 0 in
  let fresh_site () =
    incr site_counter;
    Printf.sprintf "s%d" !site_counter
  in
  let rec gen_stmt depth =
    let base =
      [
        (3, map (fun n -> Skeleton.straight (1 + n)) (int_bound 6));
        ( 1,
          let* p = float_range 0.01 0.2 in
          return
            (Skeleton.if_ ~p (fresh_site ())
               [ Skeleton.straight 2; Skeleton.return ]) );
      ]
    in
    let nested =
      if depth <= 0 then []
      else
        [
          ( 2,
            let* p = float_range 0.05 0.95 in
            let* body = list_size (int_range 1 3) (gen_stmt (depth - 1)) in
            return (Skeleton.if_ ~p (fresh_site ()) body) );
          ( 1,
            let* p = float_range 0.05 0.6 in
            let* body = list_size (int_range 1 3) (gen_stmt (depth - 1)) in
            return (Skeleton.while_ ~p (fresh_site ()) body) );
          ( 1,
            let* p = float_range 0.05 0.95 in
            let* t = list_size (int_range 1 2) (gen_stmt (depth - 1)) in
            let* e = list_size (int_range 1 2) (gen_stmt (depth - 1)) in
            return (Skeleton.if_else ~p (fresh_site ()) t e) );
        ]
    in
    frequency (base @ nested)
  in
  list_size (int_range 1 6) (gen_stmt 2)

let prop_random_skeleton_walks =
  QCheck.Test.make ~name:"random auto skeletons walk legally" ~count:100
    (QCheck.make gen_skeleton) (fun skel ->
      let b = Builder.create () in
      let pid = Builder.declare_proc b ~name:"auto" ~subsystem:Proc.Other in
      let code_auto =
        Bytecode.compile b ~pid ~resolve:(Builder.pid_of_name b) skel
      in
      let program = Builder.build b in
      (match Program.validate program with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      let rec_ = Recorder.create () in
      let code = Array.make 1 (Some code_auto) in
      let w = Walker.create ~program ~code ~seed:3L ~sink:(Recorder.sink rec_) in
      for _ = 1 to 5 do
        Walker.auto_run w pid
      done;
      match Check.check_all program (fun f -> Stc_trace.Source.iter (Stc_trace.Source.of_recorder rec_) f) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* Compiler invariants over random skeletons: every allocated block is
   emitted by exactly one Emit op, every branch target pc is in range, and
   the ops array ends every path with Finish. *)
let prop_bytecode_invariants =
  QCheck.Test.make ~name:"bytecode compiler invariants" ~count:100
    (QCheck.make gen_skeleton) (fun skel ->
      let b = Builder.create () in
      let pid = Builder.declare_proc b ~name:"auto" ~subsystem:Proc.Other in
      let code = Bytecode.compile b ~pid ~resolve:(Builder.pid_of_name b) skel in
      let program = Builder.build b in
      let nops = Array.length code.Bytecode.ops in
      let emitted = Hashtbl.create 16 in
      Array.iter
        (fun op ->
          match op with
          | Bytecode.Emit bid ->
            if Hashtbl.mem emitted bid then
              QCheck.Test.fail_reportf "block %d emitted twice" bid;
            Hashtbl.replace emitted bid ()
          | Bytecode.Expect_cond { then_pc; else_pc; _ } ->
            if then_pc < 0 || then_pc >= nops || else_pc < 0 || else_pc >= nops
            then QCheck.Test.fail_report "cond pc out of range"
          | Bytecode.Goto { target } ->
            if target < 0 || target >= nops then
              QCheck.Test.fail_report "goto pc out of range"
          | Bytecode.Expect_enter _ | Bytecode.Auto_call _ | Bytecode.Finish
            ->
            ())
        code.Bytecode.ops;
      (* every block of the procedure has an Emit *)
      Array.iter
        (fun bid ->
          if not (Hashtbl.mem emitted bid) then
            QCheck.Test.fail_reportf "block %d never emitted" bid)
        program.Program.procs.(pid).Proc.blocks;
      (* the walk starts at pc 0, which emits the procedure's entry block *)
      code.Bytecode.ops.(0) = Bytecode.Emit program.Program.procs.(pid).Proc.entry)

let suite =
  [
    Alcotest.test_case "trace legal" `Quick test_trace_legal;
    Alcotest.test_case "trace counts" `Quick test_trace_counts;
    Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "seed variation" `Quick test_trace_seed_changes_helper_walk;
    Alcotest.test_case "desync wrong site" `Quick test_desync_wrong_site;
    Alcotest.test_case "desync unexpected enter" `Quick
      test_desync_unexpected_enter;
    Alcotest.test_case "probes inert" `Quick test_probes_inert_without_walker;
    Alcotest.test_case "compiled program valid" `Quick
      test_compiled_program_valid;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_random_skeleton_walks; prop_bytecode_invariants ]
