type built = {
  mutable instrs : int;
  mutable end_idx : int;
  mutable end_off : int;
}

(* Entries live in four parallel int arrays, so an install is four int
   stores: no option, no record, no write barrier. *)
type t = {
  starts : int array; (* start address per entry, -1 when empty *)
  n_instrs : int array;
  n_branches : int array;
  outcome_masks : int array; (* bit [i] = the [i]th branch was taken *)
  mask : int; (* entries - 1 *)
  width : int;
  max_branches : int;
  b : built;
  (* the rest of the last build, which [install] copies *)
  mutable b_slot : int;
  mutable b_addr : int;
  mutable b_branches : int;
  mutable b_outcomes : int;
}

let create ?(entries = 256) ?(width = 16) ?(max_branches = 3) () =
  if not (Stc_util.Bits.is_pow2 entries) then
    invalid_arg "Tracecache.create: entries must be a power of two";
  if width < 1 then invalid_arg "Tracecache.create: width must be >= 1";
  if max_branches < 1 then
    invalid_arg "Tracecache.create: max_branches must be >= 1";
  {
    starts = Array.make entries (-1);
    n_instrs = Array.make entries 0;
    n_branches = Array.make entries 0;
    outcome_masks = Array.make entries 0;
    mask = entries - 1;
    width;
    max_branches;
    b = { instrs = 0; end_idx = 0; end_off = 0 };
    b_slot = 0;
    b_addr = 0;
    b_branches = 0;
    b_outcomes = 0;
  }

let geometry t = (t.mask + 1, t.width, t.max_branches)

let width t = t.width

let built t = t.b

(* Packed-word decoders over {!Packed}'s field constants, local so that
   the trace walk below inlines them: a call into another module stays
   out of line when modules compile separately. *)
let w_addr w = w lsr Packed.addr_shift

let w_size w = (w lsr Packed.size_shift) land Packed.size_mask

let w_taken w = w land Packed.taken_bit <> 0

let w_branch w = w land Packed.branch_bit <> 0

(* The trace the fill unit builds from position (idx, off) over packed
   words [0, len), driven by unsafe word reads: greedily take
   instructions until the width limit, the branch limit or the end of
   the words. *)
let build t words ~len ~idx ~off =
  let a =
    w_addr (Array.unsafe_get words idx) + (off * Stc_cfg.Block.instr_bytes)
  in
  let width = t.width and max_branches = t.max_branches in
  let n = ref 0 and branches = ref 0 and outcomes = ref 0 in
  let idx = ref idx and off = ref off in
  let stop = ref false in
  while not !stop do
    if !idx >= len || !n >= width then stop := true
    else begin
      let w = Array.unsafe_get words !idx in
      let size = w_size w in
      let remaining = size - !off in
      (* not [min]: Stdlib's is polymorphic, a call per block *)
      let room = width - !n in
      let take = if remaining <= room then remaining else room in
      n := !n + take;
      if !off + take < size then begin
        (* width limit hit mid-block *)
        off := !off + take;
        stop := true
      end
      else begin
        (* block completed *)
        (if w_branch w then begin
           if w_taken w then outcomes := !outcomes lor (1 lsl !branches);
           incr branches
         end);
        incr idx;
        off := 0;
        if !branches >= max_branches then stop := true
      end
    end
  done;
  let b = t.b in
  b.instrs <- !n;
  b.end_idx <- !idx;
  b.end_off <- !off;
  let slot = (a lsr 2) land t.mask in
  t.b_slot <- slot;
  t.b_addr <- a;
  t.b_branches <- !branches;
  t.b_outcomes <- !outcomes;
  !n > 0
  && Array.unsafe_get t.starts slot = a
  && Array.unsafe_get t.n_instrs slot = !n
  && Array.unsafe_get t.n_branches slot = !branches
  && Array.unsafe_get t.outcome_masks slot = !outcomes

let install t =
  if t.b.instrs > 0 then begin
    let slot = t.b_slot in
    Array.unsafe_set t.starts slot t.b_addr;
    Array.unsafe_set t.n_instrs slot t.b.instrs;
    Array.unsafe_set t.n_branches slot t.b_branches;
    Array.unsafe_set t.outcome_masks slot t.b_outcomes
  end
