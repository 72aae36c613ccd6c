type t = { cumulative : float array; executed : int }

let compute p =
  let counts = Array.copy (Profile.counts p) in
  let executed = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  { cumulative = Stc_util.Stats.cumulative_share counts; executed }

(* fraction of all dynamic block references captured by the [n] most
   popular static blocks *)
let share_of_top t n =
  let len = Array.length t.cumulative in
  if n <= 0 || len = 0 then 0.0 else t.cumulative.(min n len - 1)

let blocks_for_share t share =
  let len = Array.length t.cumulative in
  let rec go i = if i >= len || t.cumulative.(i) >= share then i + 1 else go (i + 1) in
  if len = 0 then 0 else go 0

let curve t ~max_blocks ~step =
  let rec go n acc =
    if n > max_blocks then List.rev acc
    else go (n + step) ((n, share_of_top t n) :: acc)
  in
  go step []

let executed_blocks t = t.executed
