let cumulative_share counts =
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  let total = Array.fold_left ( + ) 0 sorted in
  let totalf = float_of_int (max total 1) in
  let acc = ref 0 in
  Array.map
    (fun c ->
      acc := !acc + c;
      float_of_int !acc /. totalf)
    sorted
