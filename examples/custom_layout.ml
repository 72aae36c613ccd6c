(* Bring-your-own program: build a small CFG by hand with the Builder and
   the skeleton DSL, run your own instrumented workload over it, and
   compare all the layout algorithms on it.

   This is the path a user would take to apply the library to a program
   that is not the bundled database kernel.

   Run with:  dune exec examples/custom_layout.exe *)

module Builder = Stc_cfg.Builder
module Skeleton = Stc_trace.Skeleton
module Bytecode = Stc_trace.Bytecode
module Probe = Stc_trace.Probe
module L = Stc_layout
module F = Stc_fetch

(* A toy interpreter: a dispatch loop calling one of three handlers, with a
   helper used by two of them. *)

let k_main = Probe.key "interp_main"

let k_add = Probe.key "op_add"

let k_mul = Probe.key "op_mul"

let k_jmp = Probe.key "op_jmp"

let skeletons =
  [
    ( "interp_main",
      Skeleton.
        [
          straight 4;
          while_ "fetch"
            [
              straight 3;
              icall "dispatch" [ "op_add"; "op_mul"; "op_jmp" ];
              straight 2;
            ];
          straight 2;
        ] );
    ("op_add", Skeleton.[ straight 3; helper "spill_check"; straight 2 ]);
    ( "op_mul",
      Skeleton.
        [ straight 2; if_ "overflow" [ straight 4 ]; helper "spill_check" ] );
    ( "op_jmp",
      Skeleton.[ straight 2; if_else "fwd" [ straight 3 ] [ straight 2 ] ] );
  ]

let helper_skeleton =
  Skeleton.[ straight 3; if_ ~p:0.1 "slow_path" [ straight 6 ]; straight 1 ]

(* The instrumented interpreter itself. *)
let op_add () = Probe.routine k_add (fun () -> ())

let op_mul x = Probe.routine k_mul (fun () -> ignore (Probe.cond "overflow" (x > 1000)))

let op_jmp x = Probe.routine k_jmp (fun () -> ignore (Probe.cond "fwd" (x mod 3 = 0)))

let interp program_input =
  Probe.routine k_main @@ fun () ->
  let rest = ref program_input in
  while Probe.cond "fetch" (!rest <> []) do
    (match !rest with
    | op :: _ -> (
      match op mod 3 with
      | 0 -> op_add ()
      | 1 -> op_mul op
      | _ -> op_jmp op)
    | [] -> assert false);
    rest := List.tl !rest
  done

let () =
  (* assemble the program *)
  let b = Builder.create () in
  List.iter
    (fun (name, _) ->
      ignore (Builder.declare_proc b ~name ~subsystem:Stc_cfg.Proc.Other))
    skeletons;
  ignore
    (Builder.declare_proc b ~name:"spill_check" ~subsystem:Stc_cfg.Proc.Utility);
  let resolve = Builder.pid_of_name b in
  let code = ref [] in
  List.iter
    (fun (name, skel) ->
      let pid = resolve name in
      code := (pid, Bytecode.compile b ~pid ~resolve skel) :: !code)
    (("spill_check", helper_skeleton) :: skeletons);
  let program = Builder.build b in
  let code_arr = Array.make (Array.length program.Stc_cfg.Program.procs) None in
  List.iter (fun (pid, bc) -> code_arr.(pid) <- Some bc) !code;

  (* trace a synthetic instruction stream *)
  let recorder = Stc_trace.Recorder.create () in
  let walker =
    Stc_trace.Walker.create ~program ~code:code_arr ~seed:7L
      ~sink:(Stc_trace.Recorder.sink recorder)
  in
  let input = List.init 20_000 (fun i -> (i * 7919) mod 2048) in
  Probe.with_walker walker (fun () -> interp input);
  Printf.printf "traced %d blocks\n" (Stc_trace.Recorder.length recorder);

  (* profile it and compare layouts *)
  let profile = Stc_profile.Profile.create program in
  Stc_trace.Source.iter
    (Stc_trace.Source.of_recorder recorder)
    (Stc_profile.Profile.sink profile);
  let params =
    L.Algo.params ~exec_threshold:10 ~branch_threshold:0.3 ~cache_bytes:1024
      ~cfa_bytes:256 ()
  in
  (* every placement algorithm comes out of the registry — a new one
     added to Stc_layout.Algo's built-in list would appear here by name
     too *)
  let algo name =
    match L.Algo.find name with Ok a -> a | Error msg -> failwith msg
  in
  let layouts =
    List.map
      (fun name -> L.Algo.layout (algo name) profile params)
      [ "orig"; "P&H"; "Torr"; "auto"; "codestitcher"; "exttsp" ]
  in
  Printf.printf "%-14s %12s %8s %10s\n" "layout" "miss/100instr" "IPC"
    "seq-run";
  List.iter
    (fun layout ->
      let view =
        F.View.create program layout
          (Stc_trace.Source.of_recorder recorder)
      in
      let icache = Stc_cachesim.Icache.create ~size_bytes:1024 () in
      let r = F.Engine.run ~icache view in
      Printf.printf "%-14s %13.2f %8.2f %10.1f\n" layout.L.Layout.name
        (F.Engine.miss_rate_pct r) (F.Engine.bandwidth r)
        r.F.Engine.instrs_between_taken)
    layouts
