module Program = Stc_cfg.Program
module Block = Stc_cfg.Block
module Terminator = Stc_cfg.Terminator
module Segment = Stc_trace.Segment
module Source = Stc_trace.Source
module Layout = Stc_layout.Layout

(* One word per trace index:

     bits 0..2   flags (taken / branch-end / cond-end)
     bits 3..21  block size in instructions (19 bits)
     bits 22..62 block byte address under the layout (41 bits)

   so the whole per-block query surface of a View — address, size, both
   terminator flags and the layout-dependent taken bit — is one
   [Array.unsafe_get] plus register shifts, with no Recorder indirection
   and nothing recomputed per query. *)

let taken_bit = 1

let branch_bit = 2

let cond_bit = 4

let size_shift = 3

let addr_shift = 22

let size_mask = (1 lsl (addr_shift - size_shift)) - 1

let max_addr = (1 lsl (62 - addr_shift)) - 1

let w_taken w = w land taken_bit <> 0

let w_branch w = w land branch_bit <> 0

let w_cond w = w land cond_bit <> 0

let w_size w = (w lsr size_shift) land size_mask

let w_addr w = w lsr addr_shift

type t = {
  words : int array; (* per trace index *)
  len : int;
  total_instrs : int;
  taken_branches : int;
}

(* Per-block-id static words (everything but the per-index taken bit),
   validated once and shared by every segment compiled under the same
   (program, layout). *)
type tables = { base : int array }

let tables_of_arrays ~sizes ~branch_end ~cond_end ~addrs =
  let n = Array.length sizes in
  for b = 0 to n - 1 do
    if sizes.(b) < 0 || sizes.(b) > size_mask then
      invalid_arg "Packed.tables: block size out of range";
    if addrs.(b) < 0 || addrs.(b) > max_addr then
      invalid_arg "Packed.tables: block address out of range"
  done;
  let base = Array.make (max n 1) 0 in
  for b = 0 to n - 1 do
    base.(b) <-
      (addrs.(b) lsl addr_shift)
      lor (sizes.(b) lsl size_shift)
      lor (if branch_end.(b) then branch_bit else 0)
      lor (if cond_end.(b) then cond_bit else 0)
  done;
  { base }

let tables prog layout =
  let blocks = prog.Program.blocks in
  tables_of_arrays
    ~sizes:(Array.map (fun b -> b.Block.size) blocks)
    ~branch_end:
      (Array.map (fun b -> Terminator.has_branch_instr b.Block.term) blocks)
    ~cond_end:
      (Array.map
         (fun b ->
           match b.Block.term with Terminator.Cond _ -> true | _ -> false)
         blocks)
    ~addrs:(Array.init (Array.length blocks) (Layout.address layout))

(* Pack one id segment into [words] starting at [pos]. The taken bit
   of index i depends on the block at index i+1; at the segment tail that
   block lives in the {e next} segment ([next_first]), which is how a
   per-segment pack stays bit-identical to a whole-trace pass.
   [next_first = None] means true end of trace: the final index counts
   as taken. Returns the segment's (instrs, taken) contribution.

   One pass: each base word is gathered once, and index i-1's word is
   written when index i's address is in hand. *)
let fill tb words ~pos seg ~next_first =
  let base = tb.base in
  let ids = seg.Segment.ids in
  let len = Bigarray.Array1.dim ids in
  if len = 0 then (0, 0)
  else begin
    let instr_bytes = Block.instr_bytes in
    let instrs = ref 0 and taken_n = ref 0 in
    let prev = ref (Array.unsafe_get base (Bigarray.Array1.unsafe_get ids 0)) in
    for i = 1 to len - 1 do
      let w = Array.unsafe_get base (Bigarray.Array1.unsafe_get ids i) in
      let p = !prev in
      let size = (p lsr size_shift) land size_mask in
      let taken =
        Bool.to_int
          (w lsr addr_shift <> (p lsr addr_shift) + (size * instr_bytes))
      in
      instrs := !instrs + size;
      taken_n := !taken_n + taken;
      Array.unsafe_set words (pos + i - 1) (p lor (taken * taken_bit));
      prev := w
    done;
    let p = !prev in
    let size = (p lsr size_shift) land size_mask in
    let taken =
      match next_first with
      | None -> 1 (* end of trace: counts as taken *)
      | Some nb ->
        Bool.to_int
          (Array.unsafe_get base nb lsr addr_shift
          <> (p lsr addr_shift) + (size * instr_bytes))
    in
    Array.unsafe_set words (pos + len - 1) (p lor (taken * taken_bit));
    (!instrs + size, !taken_n + taken)
  end

(* first block id of the first non-empty segment *)
let rec first_of = function
  | [] -> None
  | s :: tl -> if Segment.length s = 0 then first_of tl else Some (Segment.first s)

let compile_tables tb source =
  let segs = ref [] and total = ref 0 in
  let rec drain () =
    match Source.next_segment source with
    | None -> ()
    | Some s ->
      segs := s :: !segs;
      total := !total + Segment.length s;
      drain ()
  in
  drain ();
  let segs = List.rev !segs in
  let len = !total in
  let words = Array.make (max len 1) 0 in
  let instrs = ref 0 and taken_n = ref 0 in
  let rec go pos = function
    | [] -> ()
    | s :: tl ->
      let i, k = fill tb words ~pos s ~next_first:(first_of tl) in
      instrs := !instrs + i;
      taken_n := !taken_n + k;
      go (pos + Segment.length s) tl
  in
  go 0 segs;
  { words; len; total_instrs = !instrs; taken_branches = !taken_n }

let compile prog layout source = compile_tables (tables prog layout) source

let length t = t.len

let raw t = t.words

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Packed: index out of bounds"

let word t i =
  check t i;
  t.words.(i)

let block_addr t i = w_addr (word t i)

let block_size t i = w_size (word t i)

let taken t i = w_taken (word t i)

let has_branch t i = w_branch (word t i)

let is_cond t i = w_cond (word t i)

let total_instrs t = t.total_instrs

let taken_branches t = t.taken_branches

let memory_words t = Array.length t.words
