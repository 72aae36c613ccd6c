module Program = Stc_cfg.Program
module Block = Stc_cfg.Block
module Terminator = Stc_cfg.Terminator
module Source = Stc_trace.Source
module Layout = Stc_layout.Layout

type t = {
  ids : int array; (* the materialized trace, one block id per index *)
  sizes : int array; (* per block id *)
  branch_end : bool array;
  cond_end : bool array;
  addrs : int array; (* per block id *)
  tables : Packed.tables; (* the same blocks, packed for {!stream} *)
  mutable cached_totals : (int * int) option;
}

type pos = { idx : int; off : int }

let create prog layout source =
  {
    ids = Source.to_array source;
    sizes = Array.map (fun b -> b.Block.size) prog.Program.blocks;
    branch_end =
      Array.map
        (fun b -> Terminator.has_branch_instr b.Block.term)
        prog.Program.blocks;
    cond_end =
      Array.map
        (fun b ->
          match b.Block.term with Terminator.Cond _ -> true | _ -> false)
        prog.Program.blocks;
    addrs = Array.init (Array.length prog.Program.blocks) (Layout.address layout);
    tables = Packed.tables prog layout;
    cached_totals = None;
  }

let length t = Array.length t.ids

let bid t idx = t.ids.(idx)

let block_size t idx = t.sizes.(bid t idx)

let has_branch t idx = t.branch_end.(bid t idx)

let is_cond t idx = t.cond_end.(bid t idx)

let block_addr t idx = t.addrs.(bid t idx)

let addr t p = block_addr t p.idx + (p.off * Block.instr_bytes)

let taken t idx =
  if idx + 1 >= length t then true
  else
    let b = bid t idx in
    t.addrs.(bid t (idx + 1))
    <> t.addrs.(b) + (t.sizes.(b) * Block.instr_bytes)

let totals t =
  match t.cached_totals with
  | Some (i, k) -> (i, k)
  | None ->
    let instrs = ref 0 and taken_n = ref 0 in
    for idx = 0 to length t - 1 do
      instrs := !instrs + block_size t idx;
      if taken t idx then incr taken_n
    done;
    t.cached_totals <- Some (!instrs, !taken_n);
    (!instrs, !taken_n)

let taken_branches t = snd (totals t)

let instrs_between_taken t =
  let i, k = totals t in
  if k = 0 then float_of_int i else float_of_int i /. float_of_int k

let stream t = Stream.create t.tables (Source.of_array t.ids)
