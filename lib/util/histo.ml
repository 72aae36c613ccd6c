(* Buckets: [0,1), [1,2), [2,4), [4,8), ... doubling. Bucket index for v>0 is
   1 + floor(log2 v); bucket 0 holds the value 0. *)

type t = { counts : int array; mutable total : int; nbuckets : int }

let bucket_of v = if v <= 0 then 0 else 1 + (Sys.int_size - 1 - Bits.clz v)

let create () =
  let nbuckets = bucket_of (1 lsl 40) + 1 in
  { counts = Array.make nbuckets 0; total = 0; nbuckets }

let add h v =
  let b = min (bucket_of v) (h.nbuckets - 1) in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1

let total h = h.total

let bounds b = if b = 0 then (0, 1) else (1 lsl (b - 1), 1 lsl b)

let mass_below h v =
  if h.total = 0 then 0.0
  else begin
    let vb = min (bucket_of v) (h.nbuckets - 1) in
    let below = ref 0 in
    for b = 0 to vb - 1 do
      below := !below + h.counts.(b)
    done;
    (* interpolate within bucket vb *)
    let lo, hi = bounds vb in
    let frac =
      if v <= lo then 0.0
      else if v >= hi then 1.0
      else float_of_int (v - lo) /. float_of_int (hi - lo)
    in
    (float_of_int !below +. (frac *. float_of_int h.counts.(vb)))
    /. float_of_int h.total
  end
