type t = { width : int; data : int array; mutable n_items : int; cap : int }

let page_ints = 1024

let capacity ~width = max 1 (page_ints / width)

let create ~width =
  let cap = capacity ~width in
  { width; data = Array.make (cap * width) 0; n_items = 0; cap }

let width t = t.width

let n_items t = t.n_items

let full t = t.n_items >= t.cap

let append t row =
  if full t then invalid_arg "Page.append: page full";
  if Array.length row <> t.width then invalid_arg "Page.append: width mismatch";
  Array.blit row 0 t.data (t.n_items * t.width) t.width;
  t.n_items <- t.n_items + 1

let get t ~slot ~col =
  if slot < 0 || slot >= t.n_items || col < 0 || col >= t.width then
    invalid_arg "Page.get: out of range";
  t.data.((slot * t.width) + col)
