module Histo = Stc_util.Histo

type t = {
  sizes : int array;
  member : bool array;
  last : int array; (* instruction index at last execution, -1 if never *)
  histo : Histo.t;
  mutable clock : int; (* instructions executed so far *)
}

let popular_set p ~share =
  let counts = Profile.counts p in
  let n = Array.length counts in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      if counts.(a) <> counts.(b) then compare counts.(b) counts.(a)
      else compare a b)
    order;
  let total = Array.fold_left ( + ) 0 counts in
  let target = share *. float_of_int total in
  let member = Array.make n false in
  let acc = ref 0 in
  (try
     Array.iter
       (fun bid ->
         if float_of_int !acc >= target || counts.(bid) = 0 then raise Exit;
         member.(bid) <- true;
         acc := !acc + counts.(bid))
       order
   with Exit -> ());
  member

let create prog ~member =
  let sizes =
    Array.map (fun b -> b.Stc_cfg.Block.size) prog.Stc_cfg.Program.blocks
  in
  {
    sizes;
    member;
    last = Array.make (Array.length sizes) (-1);
    histo = Histo.create ();
    clock = 0;
  }

let sink t bid =
  if Array.unsafe_get t.member bid then begin
    let last = Array.unsafe_get t.last bid in
    if last >= 0 then Histo.add t.histo (t.clock - last);
    Array.unsafe_set t.last bid t.clock
  end;
  t.clock <- t.clock + Array.unsafe_get t.sizes bid

let mass_below t d = Histo.mass_below t.histo d

let samples t = Histo.total t.histo
