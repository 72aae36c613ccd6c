module Profile = Stc_profile.Profile
module Program = Stc_cfg.Program
module Block = Stc_cfg.Block
module Proc = Stc_cfg.Proc
module Terminator = Stc_cfg.Terminator
module Recorder = Stc_trace.Recorder

type config = { min_call_count : int; max_callee_blocks : int; max_clones : int }

let default_config =
  { min_call_count = 1000; max_callee_blocks = 24; max_clones = 64 }

type site = {
  site_block : int;
  clone_of : (int, int) Hashtbl.t; (* original callee block -> clone id *)
}

type t = {
  expanded : Program.t;
  sites : site list;
  site_of_block : (int, site) Hashtbl.t;
  is_ret : bool array; (* original callee blocks ending an activation *)
  growth_pct : float;
}

(* A callee is inlinable when it is a leaf routine: no calls of any kind
   (this also rules out recursion), so an inlined activation is a
   contiguous run of its own blocks. *)
let leaf_callee prog pid =
  let p = prog.Program.procs.(pid) in
  Array.for_all
    (fun bid ->
      match prog.Program.blocks.(bid).Block.term with
      | Terminator.Call _ | Terminator.Icall _ -> false
      | Terminator.Fall _ | Terminator.Jump _ | Terminator.Cond _
      | Terminator.Ret ->
        true)
    p.Proc.blocks

let pick_sites config profile =
  let prog = Profile.program profile in
  let counts = Profile.counts profile in
  let candidates = ref [] in
  Array.iter
    (fun blk ->
      match blk.Block.term with
      | Terminator.Call { callee; next } ->
        let c = counts.(blk.Block.id) in
        let callee_blocks =
          Array.length prog.Program.procs.(callee).Proc.blocks
        in
        if
          c >= config.min_call_count
          && callee_blocks <= config.max_callee_blocks
          && leaf_callee prog callee
        then candidates := (c, blk.Block.id, callee, next) :: !candidates
      | _ -> ())
    prog.Program.blocks;
  let sorted =
    List.sort (fun (c1, b1, _, _) (c2, b2, _, _) ->
        if c1 <> c2 then compare c2 c1 else compare b1 b2)
      !candidates
  in
  List.filteri (fun i _ -> i < config.max_clones) sorted

let transform ?(config = default_config) profile =
  let base = Profile.program profile in
  let n_blocks = Array.length base.Program.blocks in
  let picked = pick_sites config profile in
  (* allocate clone ids *)
  let next_id = ref n_blocks in
  let clones = ref [] in
  (* mutable copies of original blocks (site terminators change) *)
  let new_blocks = Array.map (fun b -> b) base.Program.blocks in
  let extra_per_proc : (int, (int * int list) list) Hashtbl.t =
    (* caller pid -> (site block, clone ids in callee textual order) *)
    Hashtbl.create 64
  in
  let sites =
    List.map
      (fun (_, site_block, callee, continuation) ->
        let callee_proc = base.Program.procs.(callee) in
        let caller_pid = base.Program.blocks.(site_block).Block.proc in
        let clone_of = Hashtbl.create 16 in
        Array.iter
          (fun bid ->
            Hashtbl.replace clone_of bid !next_id;
            incr next_id)
          callee_proc.Proc.blocks;
        let remap bid = Hashtbl.find clone_of bid in
        let clone_ids = ref [] in
        Array.iter
          (fun bid ->
            let b = base.Program.blocks.(bid) in
            let term =
              match b.Block.term with
              | Terminator.Fall x -> Terminator.Fall (remap x)
              | Terminator.Jump x -> Terminator.Jump (remap x)
              | Terminator.Cond { taken; fallthru } ->
                Terminator.Cond { taken = remap taken; fallthru = remap fallthru }
              | Terminator.Ret ->
                (* the return instruction becomes a jump to the
                   continuation *)
                Terminator.Jump continuation
              | Terminator.Call _ | Terminator.Icall _ -> assert false
            in
            let id = remap bid in
            clone_ids := id :: !clone_ids;
            clones :=
              { Block.id; proc = caller_pid; size = b.Block.size; term }
              :: !clones)
          callee_proc.Proc.blocks;
        (* the call instruction disappears; the site falls through into
           its private copy of the callee *)
        let sb = new_blocks.(site_block) in
        new_blocks.(site_block) <-
          {
            sb with
            Block.size = max 1 (sb.Block.size - 1);
            term = Terminator.Fall (remap callee_proc.Proc.entry);
          };
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt extra_per_proc caller_pid)
        in
        Hashtbl.replace extra_per_proc caller_pid
          ((site_block, List.rev !clone_ids) :: cur);
        { site_block; clone_of })
      picked
  in
  let all_blocks =
    Array.append new_blocks (Array.of_list (List.rev !clones))
  in
  (* rebuild procedure block lists, inserting clones after their site *)
  let procs =
    Array.map
      (fun p ->
        match Hashtbl.find_opt extra_per_proc p.Proc.pid with
        | None -> p
        | Some insertions ->
          let blocks =
            Array.to_list p.Proc.blocks
            |> List.concat_map (fun bid ->
                   match List.assoc_opt bid insertions with
                   | Some clone_ids -> bid :: clone_ids
                   | None -> [ bid ])
          in
          { p with Proc.blocks = Array.of_list blocks })
      base.Program.procs
  in
  let expanded = { Program.procs; blocks = all_blocks } in
  (match Program.validate expanded with
  | Ok () -> ()
  | Error e -> failwith ("Inline.transform: invalid expanded program: " ^ e));
  let site_of_block = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace site_of_block s.site_block s) sites;
  let is_ret =
    Array.map
      (fun b -> b.Block.term = Terminator.Ret)
      base.Program.blocks
  in
  let old_instrs = (Program.static_counts base).Program.n_instrs in
  let new_instrs = (Program.static_counts expanded).Program.n_instrs in
  {
    expanded;
    sites;
    site_of_block;
    is_ret;
    growth_pct =
      100.0 *. float_of_int (new_instrs - old_instrs) /. float_of_int old_instrs;
  }

let program t = t.expanded

let inlined_sites t = List.length t.sites

let code_growth_pct t = t.growth_pct

let remap_trace t rec_ =
  let out = Recorder.create () in
  let active = ref None in
  Stc_trace.Source.iter
    (Stc_trace.Source.of_recorder rec_)
    (fun b ->
      match !active with
      | Some site ->
        (* inside an inlined activation: every block belongs to the leaf
           callee *)
        let cb = Hashtbl.find site.clone_of b in
        Recorder.sink out cb;
        if t.is_ret.(b) then active := None
      | None ->
        Recorder.sink out b;
        (match Hashtbl.find_opt t.site_of_block b with
        | Some site -> active := Some site
        | None -> ()));
  out
