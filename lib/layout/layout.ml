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
  (* Every block is placed and aligned; walk them in address order (a
     stable integer sort, so blocks at equal addresses come in id order)
     and reject the first overlap. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare addr.(a) addr.(b)) order;
  for i = 0 to n - 2 do
    let bid = order.(i) and next = order.(i + 1) in
    if addr.(bid) + Block.byte_size prog.Program.blocks.(bid) > addr.(next)
    then
      invalid_arg
        (Printf.sprintf "Layout.of_placements: blocks %d and %d overlap" bid
           next)
  done;
  { name; addr }

let address t bid = t.addr.(bid)
