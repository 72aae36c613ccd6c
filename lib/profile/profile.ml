module Program = Stc_cfg.Program
module Block = Stc_cfg.Block
module Terminator = Stc_cfg.Terminator

type t = {
  prog : Program.t;
  counts : int array;
  sizes : int array;
  edges : (int, int) Hashtbl.t; (* src * n_blocks + dst -> count *)
  n_blocks_static : int;
  mutable prev : int;
  mutable total_instrs : int;
  mutable succs : (int * int) list array option;
      (* per-block successor lists, built lazily from [edges] *)
}

let create prog =
  let n = Array.length prog.Program.blocks in
  {
    prog;
    counts = Array.make n 0;
    sizes = Array.map (fun b -> b.Block.size) prog.Program.blocks;
    edges = Hashtbl.create 4096;
    n_blocks_static = n;
    prev = -1;
    total_instrs = 0;
    succs = None;
  }

let sink t bid =
  t.counts.(bid) <- t.counts.(bid) + 1;
  t.total_instrs <- t.total_instrs + Array.unsafe_get t.sizes bid;
  if t.prev >= 0 then begin
    let key = (t.prev * t.n_blocks_static) + bid in
    (match Hashtbl.find_opt t.edges key with
    | Some c -> Hashtbl.replace t.edges key (c + 1)
    | None -> Hashtbl.add t.edges key 1);
    t.succs <- None
  end;
  t.prev <- bid

let program t = t.prog

let counts t = t.counts

let total_instrs t = t.total_instrs

let edge_count t ~src ~dst =
  match Hashtbl.find_opt t.edges ((src * t.n_blocks_static) + dst) with
  | Some c -> c
  | None -> 0

let iter_edges t f =
  Hashtbl.iter
    (fun key count ->
      f ~src:(key / t.n_blocks_static) ~dst:(key mod t.n_blocks_static) ~count)
    t.edges

(* Successor lists are materialized once per profile state in a single pass
   over the edge table; [sink] invalidates the cache when a new edge
   appears. *)
let succ_table t =
  match t.succs with
  | Some s -> s
  | None ->
    let s = Array.make t.n_blocks_static [] in
    Hashtbl.iter
      (fun key count ->
        let src = key / t.n_blocks_static
        and dst = key mod t.n_blocks_static in
        s.(src) <- (dst, count) :: s.(src))
      t.edges;
    let by_weight (d1, c1) (d2, c2) =
      if c1 <> c2 then compare c2 c1 else compare d1 d2
    in
    Array.iteri (fun i l -> s.(i) <- List.sort by_weight l) s;
    t.succs <- Some s;
    s

let successors t bid = (succ_table t).(bid)

let proc_entry_count t pid =
  t.counts.(t.prog.Program.procs.(pid).Stc_cfg.Proc.entry)

let call_edges t =
  let acc = Hashtbl.create 256 in
  Array.iter
    (fun blk ->
      let record callee =
        let entry = t.prog.Program.procs.(callee).Stc_cfg.Proc.entry in
        let c = edge_count t ~src:blk.Block.id ~dst:entry in
        if c > 0 then begin
          let key = (blk.Block.proc, callee) in
          let cur = Option.value ~default:0 (Hashtbl.find_opt acc key) in
          Hashtbl.replace acc key (cur + c)
        end
      in
      match blk.Block.term with
      | Terminator.Call { callee; _ } -> record callee
      | Terminator.Icall { callees; _ } -> Array.iter record callees
      | Terminator.Fall _ | Terminator.Jump _ | Terminator.Cond _
      | Terminator.Ret ->
        ())
    t.prog.Program.blocks;
  let l = Hashtbl.fold (fun (p, q) c acc -> (p, q, c) :: acc) acc [] in
  List.sort
    (fun (p1, q1, c1) (p2, q2, c2) ->
      if c1 <> c2 then compare c2 c1 else compare (p1, q1) (p2, q2))
    l

let inject_block t bid ~count =
  t.counts.(bid) <- t.counts.(bid) + count;
  t.total_instrs <- t.total_instrs + (count * t.sizes.(bid))

let inject_edge t ~src ~dst ~count =
  let key = (src * t.n_blocks_static) + dst in
  (match Hashtbl.find_opt t.edges key with
  | Some c -> Hashtbl.replace t.edges key (c + count)
  | None -> Hashtbl.add t.edges key count);
  t.succs <- None
