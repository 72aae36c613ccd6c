type kind = Always_taken | Bimodal of int | Gshare of int * int

type t = {
  kind : kind;
  table : int array; (* 2-bit saturating counters *)
  mask : int;
  history_mask : int;
  mutable history : int;
}

let create kind =
  let size, hist_bits =
    match kind with
    | Always_taken -> (1, 0)
    | Bimodal n -> (n, 0)
    | Gshare (n, h) -> (n, h)
  in
  if not (Stc_util.Bits.is_pow2 size) then
    invalid_arg "Predictor.create: table size must be a power of two";
  if hist_bits < 0 then
    invalid_arg "Predictor.create: history bits must be >= 0";
  {
    kind;
    table = Array.make size 2 (* weakly taken *);
    mask = size - 1;
    history_mask = (1 lsl hist_bits) - 1;
    history = 0;
  }

let predict_and_update t ~pc ~taken =
  match t.kind with
  | Always_taken -> taken
  | Bimodal _ | Gshare _ ->
    (* a bimodal predictor's [history_mask] is 0, so its history stays 0
       and this is its plain pc index *)
    let i = ((pc lsr 2) lxor t.history) land t.mask in
    let c = t.table.(i) in
    (* int comparisons: Stdlib's [min]/[max] are polymorphic calls *)
    if taken then (if c < 3 then t.table.(i) <- c + 1)
    else if c > 0 then t.table.(i) <- c - 1;
    t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.history_mask;
    (c >= 2) = taken
