let sorted_desc counts =
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  sorted

let cumulative_share counts =
  let sorted = sorted_desc counts in
  let total = Array.fold_left ( + ) 0 sorted in
  let totalf = float_of_int (max total 1) in
  let acc = ref 0 in
  Array.map
    (fun c ->
      acc := !acc + c;
      float_of_int !acc /. totalf)
    sorted

let items_for_share counts s =
  let sorted = sorted_desc counts in
  let total = Array.fold_left ( + ) 0 sorted in
  if total = 0 then 0
  else
    let target = s *. float_of_int total in
    let rec go i acc =
      if i >= Array.length sorted then i
      else
        let acc = acc + sorted.(i) in
        if float_of_int acc >= target then i + 1 else go (i + 1) acc
    in
    go 0 0

let weighted_percentile pairs p =
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Stats.weighted_percentile: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 pairs in
  if total <= 0 then invalid_arg "Stats.weighted_percentile: no weight";
  let target = p *. float_of_int total in
  let rec go i acc =
    let v, w = pairs.(i) in
    let acc = acc + w in
    if float_of_int acc >= target || i = n - 1 then float_of_int v
    else go (i + 1) acc
  in
  go 0 0
