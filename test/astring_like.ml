(* Minimal substring search and replacement used by the test suite. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec go i =
      if i + m > n then false
      else if String.sub s i m = sub then true
      else go (i + 1)
    in
    go 0

(* [s] with every occurrence of [sub] (non-empty), left to right, replaced
   by [by]. *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let b = Buffer.create n in
  let rec go i =
    if i + m > n then Buffer.add_substring b s i (n - i)
    else if String.sub s i m = sub then begin
      Buffer.add_string b by;
      go (i + m)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b
