(* The trace lives in fixed-size off-heap chunks: chunk [c] holds global
   indices [c * chunk_blocks, (c + 1) * chunk_blocks).  Recording only
   appends, so every position below [len] is final, and a segment inside
   one chunk can be handed out as a view instead of a copy. *)

let chunk_bits = 16

let chunk_blocks = 1 lsl chunk_bits

let chunk_mask = chunk_blocks - 1

type t = {
  mutable chunks : Segment.ids array; (* every one [chunk_blocks] long *)
  mutable len : int;
  mutable marks_rev : (string * int) list;
}

let create () = { chunks = [||]; len = 0; marks_rev = [] }

(* Install [chunk] as chunk number [c], growing the chunk table.  The
   table holds a whole-chunk view rather than the chunk itself: taking
   the view creates the reference-counted proxy that every later view of
   the chunk joins, here, on the domain that owns the recorder.  Views
   taken later from several domains at once (a grid on a domain pool)
   then only bump the proxy's atomic count; the runtime does not
   synchronise creating a missing proxy. *)
let set_chunk t c chunk =
  let chunk = Bigarray.Array1.sub chunk 0 (Bigarray.Array1.dim chunk) in
  let n = Array.length t.chunks in
  if c >= n then begin
    let chunks = Array.make (max 4 (2 * c)) chunk in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  t.chunks.(c) <- chunk

let sink t bid =
  let len = t.len in
  if len land chunk_mask = 0 then
    set_chunk t (len lsr chunk_bits) (Segment.alloc chunk_blocks);
  Bigarray.Array1.unsafe_set
    (Array.unsafe_get t.chunks (len lsr chunk_bits))
    (len land chunk_mask) bid;
  t.len <- len + 1

let mark t name = t.marks_rev <- (name, t.len) :: t.marks_rev

let length t = t.len

let marks t = List.rev t.marks_rev

let segment t ~base ~blocks =
  let len = t.len in
  if base < 0 || base > len then invalid_arg "Recorder.segment: base out of range";
  if blocks < 0 then invalid_arg "Recorder.segment: negative block count";
  let n = min blocks (len - base) in
  let off = base land chunk_mask in
  if n = 0 then Segment.make (Segment.alloc 0) ~base
  else if off + n <= chunk_blocks then
    Segment.make
      (Bigarray.Array1.sub t.chunks.(base lsr chunk_bits) off n)
      ~base
  else begin
    (* the range straddles a chunk boundary: the only copying case *)
    let ids = Segment.alloc n in
    for i = 0 to n - 1 do
      let g = base + i in
      Bigarray.Array1.unsafe_set ids i
        (Bigarray.Array1.unsafe_get
           (Array.unsafe_get t.chunks (g lsr chunk_bits))
           (g land chunk_mask))
    done;
    Segment.make ids ~base
  end

let hash t =
  let h = ref Stc_util.Fnv.empty in
  for c = 0 to ((t.len + chunk_mask) lsr chunk_bits) - 1 do
    h :=
      Stc_util.Fnv.int_bigarray
        ~len:(min chunk_blocks (t.len - (c lsl chunk_bits)))
        !h t.chunks.(c)
  done;
  !h

let of_ids ids ~marks =
  let t = create () in
  Array.iter (sink t) ids;
  t.marks_rev <- List.rev marks;
  t

let of_segments segs ~marks =
  let t = create () in
  List.iter
    (fun s ->
      let n = Segment.length s in
      if n = chunk_blocks && t.len land chunk_mask = 0 then begin
        (* a whole aligned chunk: adopt the buffer itself *)
        set_chunk t (t.len lsr chunk_bits) s.Segment.ids;
        t.len <- t.len + n
      end
      else
        for i = 0 to n - 1 do
          sink t (Segment.unsafe_get s i)
        done)
    segs;
  t.marks_rev <- List.rev marks;
  t
