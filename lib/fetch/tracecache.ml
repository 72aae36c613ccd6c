type entry = {
  start_addr : int;
  e_instrs : int;
  e_branches : int;
  e_outcomes : int;
}

type t = { entries : entry option array; width : int; max_branches : int }

type trace_info = {
  n_instrs : int;
  n_branches : int;
  outcomes : int;
  end_pos : View.pos;
}

let create ?(entries = 256) ?(width = 16) ?(max_branches = 3) () =
  if not (Stc_util.Bits.is_pow2 entries) then
    invalid_arg "Tracecache.create: entries must be a power of two";
  if width < 1 then invalid_arg "Tracecache.create: width must be >= 1";
  if max_branches < 1 then
    invalid_arg "Tracecache.create: max_branches must be >= 1";
  { entries = Array.make entries None; width; max_branches }

let geometry t = (Array.length t.entries, t.width, t.max_branches)

let index t addr = (addr lsr 2) land (Array.length t.entries - 1)

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
let build_trace t words ~len ~idx ~off =
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
      let take = min remaining (width - !n) in
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
  {
    n_instrs = !n;
    n_branches = !branches;
    outcomes = !outcomes;
    end_pos = { View.idx = !idx; off = !off };
  }

let fetch_addr words ~idx ~off =
  w_addr (Array.unsafe_get words idx) + (off * Stc_cfg.Block.instr_bytes)

let lookup t words ~len ~idx ~off =
  let a = fetch_addr words ~idx ~off in
  match t.entries.(index t a) with
  | Some e when e.start_addr = a ->
    let actual = build_trace t words ~len ~idx ~off in
    if
      actual.n_instrs = e.e_instrs
      && actual.n_branches = e.e_branches
      && actual.outcomes = e.e_outcomes
    then Some actual
    else None
  | Some _ | None -> None

let fill t words ~len ~idx ~off =
  let a = fetch_addr words ~idx ~off in
  let info = build_trace t words ~len ~idx ~off in
  if info.n_instrs > 0 then
    t.entries.(index t a) <-
      Some
        {
          start_addr = a;
          e_instrs = info.n_instrs;
          e_branches = info.n_branches;
          e_outcomes = info.outcomes;
        }

let width t = t.width
