module Program = Stc_cfg.Program
module Block = Stc_cfg.Block

type t = { name : string; addr : int array }

let of_block_order prog ~name order =
  let n = Array.length prog.Program.blocks in
  if Array.length order <> n then
    invalid_arg "Layout.of_block_order: not a permutation (wrong length)";
  let seen = Array.make n false in
  Array.iter
    (fun bid ->
      if bid < 0 || bid >= n || seen.(bid) then
        invalid_arg "Layout.of_block_order: not a permutation";
      seen.(bid) <- true)
    order;
  let addr = Array.make n 0 in
  let cursor = ref 0 in
  Array.iter
    (fun bid ->
      addr.(bid) <- !cursor;
      cursor := !cursor + Block.byte_size prog.Program.blocks.(bid))
    order;
  { name; addr }

(* The placement check [of_placements] and [validate] share: walk the
   blocks in address order (a stable integer sort, so blocks at equal
   addresses come in id order) and report the first unplaced, misaligned
   or overlapping one. *)
let check_placement prog addr =
  let n = Array.length addr in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare addr.(a) addr.(b)) order;
  let rec go i =
    if i >= n then Ok ()
    else
      let bid = order.(i) in
      if addr.(bid) < 0 then Error (Printf.sprintf "block %d unplaced" bid)
      else if addr.(bid) mod Block.instr_bytes <> 0 then
        Error (Printf.sprintf "block %d misaligned" bid)
      else if
        i + 1 < n
        && addr.(bid) + Block.byte_size prog.Program.blocks.(bid)
           > addr.(order.(i + 1))
      then
        Error (Printf.sprintf "blocks %d and %d overlap" bid order.(i + 1))
      else go (i + 1)
  in
  go 0

let of_placements prog ~name placements =
  let n = Array.length prog.Program.blocks in
  let addr = Array.make n (-1) in
  List.iter
    (fun (bid, a) ->
      if bid < 0 || bid >= n then invalid_arg "Layout.of_placements: bad block";
      if a < 0 || a mod Block.instr_bytes <> 0 then
        invalid_arg "Layout.of_placements: bad address";
      if addr.(bid) >= 0 then
        invalid_arg "Layout.of_placements: block placed twice";
      addr.(bid) <- a)
    placements;
  Array.iteri
    (fun bid a ->
      if a < 0 then
        invalid_arg
          (Printf.sprintf "Layout.of_placements: block %d not placed" bid))
    addr;
  (match check_placement prog addr with
  | Ok () -> ()
  | Error e -> invalid_arg ("Layout.of_placements: " ^ e));
  { name; addr }

let address t bid = t.addr.(bid)

let is_sequential t prog ~src ~dst =
  t.addr.(dst) = t.addr.(src) + Block.byte_size prog.Program.blocks.(src)

let validate t prog =
  if Array.length t.addr <> Array.length prog.Program.blocks then
    Error "layout covers wrong block count"
  else check_placement prog t.addr
