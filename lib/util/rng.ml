type t = { mutable state : int64; seed : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed; seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let seed_of_string s =
  (* FNV-1a, 64-bit *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let named t name = create (mix64 (Int64.logxor t.seed (seed_of_string name)))

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the value fits a non-negative OCaml int *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(* 53 uniformly distributed mantissa bits. *)
let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r *. (1.0 /. 9007199254740992.0) *. bound

let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
