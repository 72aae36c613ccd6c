type t = int64

let empty = 0xCBF29CE484222325L

let prime = 0x100000001B3L

let int h v = Int64.mul (Int64.logxor h (Int64.of_int v)) prime

let int64 h v = Int64.mul (Int64.logxor h v) prime

let float h v = int64 h (Int64.bits_of_float v)

let string h s =
  let h = ref h in
  String.iter (fun c -> h := int !h (Char.code c)) s;
  !h

let ints h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    h := int !h (Array.unsafe_get a i)
  done;
  !h

let int_bigarray ?len h
    (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let n = match len with Some n -> n | None -> Bigarray.Array1.dim a in
  let h = ref h in
  for i = 0 to n - 1 do
    h := int !h (Bigarray.Array1.unsafe_get a i)
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
