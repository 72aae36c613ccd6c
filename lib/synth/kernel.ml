module Rng = Stc_util.Rng
module Builder = Stc_cfg.Builder
module Proc = Stc_cfg.Proc
module Skeleton = Stc_trace.Skeleton
module Bytecode = Stc_trace.Bytecode
module Walker = Stc_trace.Walker

type config = {
  seed : int64;
  n_l2 : int;
  n_l3 : int;
  n_l4 : int;
  n_parser : int;
  n_optimizer : int;
  n_filler : int;
  filler_instrs : int;
}

let default_config =
  {
    seed = 0x57C0FFEEL;
    n_l2 = 300;
    n_l3 = 760;
    n_l4 = 280;
    n_parser = 380;
    n_optimizer = 300;
    n_filler = 5150;
    filler_instrs = 95;
  }

type t = {
  program : Stc_cfg.Program.t;
  code : Bytecode.t option array;
  parser_root : string;
  optimizer_root : string;
}

let engine_skeletons () =
  Stc_db.Storage.skeletons @ Stc_db.Bufmgr.skeletons @ Stc_db.Tuple.skeletons
  @ Stc_db.Heap.skeletons @ Stc_db.Btree.skeletons @ Stc_db.Hashidx.skeletons
  @ Stc_db.Expr.skeletons @ Stc_db.Exec.skeletons

(* Partition [pool] round-robin over [n_groups] callers: every member of
   the pool gets exactly one caller, guaranteeing the whole layer is
   reachable. The first [common] members of a group sit on the caller's
   main path; the rest hide behind rare branches. *)
let partition_callees pool ~n_groups ~common =
  Array.init n_groups (fun g ->
      let mine =
        Array.to_list pool
        |> List.filteri (fun i _ -> i mod n_groups = g)
      in
      List.mapi
        (fun i name ->
          { Gen.name; placement = (if i < common then `Common else `Rare) })
        mine)

let build ?(config = default_config) () =
  let rng = Rng.create config.seed in
  let b = Builder.create () in
  let engine = engine_skeletons () in
  (* ---- declare every procedure first (names resolve forward) ---- *)
  List.iter
    (fun (name, subsystem, _) -> ignore (Builder.declare_proc b ~name ~subsystem))
    engine;
  let declare_many prefix n subsystem =
    Array.init n (fun i ->
        let name = Printf.sprintf "%s_%d" prefix i in
        ignore (Builder.declare_proc b ~name ~subsystem);
        name)
  in
  List.iter
    (fun name ->
      ignore (Builder.declare_proc b ~name ~subsystem:Proc.Utility))
    Stc_db.Helpers.names;
  let l2 = declare_many "util2" config.n_l2 Proc.Utility in
  let l3 = declare_many "util3" config.n_l3 Proc.Utility in
  let l4 = declare_many "util4" config.n_l4 Proc.Utility in
  let parser_root = "raw_parser" in
  let optimizer_root = "planner" in
  ignore (Builder.declare_proc b ~name:parser_root ~subsystem:Proc.Parser);
  ignore (Builder.declare_proc b ~name:optimizer_root ~subsystem:Proc.Optimizer);
  let parser_procs = declare_many "parse_node" config.n_parser Proc.Parser in
  let optimizer_procs =
    declare_many "plan_node" config.n_optimizer Proc.Optimizer
  in
  (* filler spread over subsystems, biased to parser/optimizer/utility *)
  let filler_subsystem i =
    match i mod 10 with
    | 0 | 1 -> Proc.Parser
    | 2 | 3 | 4 -> Proc.Optimizer
    | 5 | 6 -> Proc.Utility
    | 7 -> Proc.Storage_manager
    | 8 -> Proc.Access_methods
    | _ -> Proc.Other
  in
  let filler =
    Array.init config.n_filler (fun i ->
        let name = Printf.sprintf "cold_%d" i in
        ignore (Builder.declare_proc b ~name ~subsystem:(filler_subsystem i));
        name)
  in
  let resolve = Builder.pid_of_name b in
  let code = ref [] in
  let add_code pid bc = code := (pid, bc) :: !code in
  let compile name skel =
    let pid = resolve name in
    add_code pid (Bytecode.compile b ~pid ~resolve skel)
  in
  (* ---- engine ---- *)
  List.iter (fun (name, _, skel) -> compile name skel) engine;
  (* ---- generated utility layers (L1 calls L2 calls L3 calls L4) ----
     Every layer is partitioned over the layer above, so all of it is
     reachable; only one callee per L1 helper sits on the common path,
     keeping the hot helper walks short. *)
  let gen_layer names pool ~budget ~common ~loop_p =
    let groups =
      partition_callees pool ~n_groups:(max 1 (Array.length names)) ~common
    in
    Array.iteri
      (fun i name ->
        let r = Rng.named rng name in
        let callees = if Array.length pool = 0 then [] else groups.(i) in
        let skel = Gen.body r ~instr_budget:budget ~callees ~loop_p in
        compile name skel)
      names
  in
  (* L1 helpers are the hottest generated code (called per tuple): keep
     their bodies small and put all their fan-out behind rare branches so
     the common helper walk stays a handful of blocks. *)
  gen_layer
    (Array.of_list Stc_db.Helpers.names)
    l2 ~budget:22 ~common:0 ~loop_p:(0.15, 0.4);
  gen_layer l2 l3 ~budget:60 ~common:0 ~loop_p:(0.1, 0.4);
  gen_layer l3 l4 ~budget:60 ~common:0 ~loop_p:(0.1, 0.4);
  gen_layer l4 [||] ~budget:55 ~common:0 ~loop_p:(0.1, 0.35);
  (* ---- parser / optimizer ---- *)
  let gen_tree root procs ~budget =
    (* Four index layers; each deeper procedure is assigned to exactly one
       caller in the previous layer (acyclic, fully reachable). The root
       calls the whole first layer — a parser's dispatch table. *)
    let n = Array.length procs in
    let layer_of i = i * 4 / max 1 n in
    let layer k =
      Array.of_list
        (Array.to_list procs |> List.filteri (fun j _ -> layer_of j = k))
    in
    for k = 0 to 3 do
      let callers = layer k in
      let deeper = if k = 3 then [||] else layer (k + 1) in
      let groups =
        partition_callees deeper ~n_groups:(max 1 (Array.length callers))
          ~common:1
      in
      Array.iteri
        (fun i name ->
          let r = Rng.named rng name in
          let callees = if Array.length deeper = 0 then [] else groups.(i) in
          compile name
            (Gen.body r ~instr_budget:budget ~callees ~loop_p:(0.1, 0.5)))
        callers
    done;
    let r = Rng.named rng root in
    let callees =
      Array.to_list (layer 0)
      |> List.mapi (fun i name ->
             {
               Gen.name;
               placement = (if i mod 5 < 3 then `Common else `Rare);
             })
    in
    compile root (Gen.body r ~instr_budget:120 ~callees ~loop_p:(0.3, 0.6))
  in
  gen_tree parser_root parser_procs ~budget:70;
  gen_tree optimizer_root optimizer_procs ~budget:70;
  (* ---- cold filler ---- *)
  Array.iteri
    (fun i name ->
      let r = Rng.named rng name in
      (* occasional calls to other (later) filler procs *)
      let callees =
        (* a couple of rare calls to later filler procedures *)
        let n = Array.length filler in
        List.filter_map
          (fun off ->
            if i + off < n then
              Some { Gen.name = filler.(i + off); placement = `Rare }
            else None)
          [ 7; 23 ]
      in
      let budget =
        (config.filler_instrs / 2) + Rng.int r (max 1 config.filler_instrs)
      in
      compile name (Gen.body r ~instr_budget:budget ~callees ~loop_p:(0.1, 0.5)))
    filler;
  let program = Builder.build b in
  let code_arr = Array.make (Array.length program.Stc_cfg.Program.procs) None in
  List.iter (fun (pid, bc) -> code_arr.(pid) <- Some bc) !code;
  {
    program;
    code = code_arr;
    parser_root;
    optimizer_root;
  }

let make_walker t ~seed ~sink =
  Walker.create ~program:t.program ~code:t.code ~seed ~sink

let query_setup t walker =
  Walker.auto_run walker (Walker.pid_of_name walker t.parser_root);
  Walker.auto_run walker (Walker.pid_of_name walker t.optimizer_root)
