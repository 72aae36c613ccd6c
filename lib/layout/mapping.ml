module Program = Stc_cfg.Program
module Block = Stc_cfg.Block

let seq_bytes prog seq =
  List.fold_left
    (fun acc bid -> acc + Block.byte_size prog.Program.blocks.(bid))
    0 seq

let fit_cfa prog ~cfa_bytes seqs =
  let rec go used acc_in acc_out = function
    | [] -> (List.rev acc_in, List.rev acc_out)
    | seq :: rest ->
      let b = seq_bytes prog seq in
      if used + b <= cfa_bytes then go (used + b) (seq :: acc_in) acc_out rest
      else go used acc_in (seq :: acc_out) rest
  in
  go 0 [] [] seqs

type plan = {
  cfa_seqs : int list list;
  other_seqs : int list list;
  cold : int list;
}

let map_plan prog ~name ~cache_bytes ~cfa_bytes { cfa_seqs; other_seqs; cold } =
  if cfa_bytes < 0 || cfa_bytes > cache_bytes then
    invalid_arg "Mapping.map_plan: cfa_bytes out of range";
  let placements = ref [] in
  let place bid addr = placements := (bid, addr) :: !placements in
  let size bid = Block.byte_size prog.Program.blocks.(bid) in
  (* 1. CFA sequences from address 0. *)
  let cursor = ref 0 in
  List.iter
    (fun seq ->
      List.iter
        (fun bid ->
          place bid !cursor;
          cursor := !cursor + size bid)
        seq)
    cfa_seqs;
  if !cursor > cfa_bytes then
    invalid_arg "Mapping.map_plan: CFA sequences exceed the CFA size";
  (* 2. Remaining sequences, skipping the CFA window of every logical
     cache. Skipped windows become holes for the cold code. *)
  let holes = ref [] in
  cursor := max !cursor cfa_bytes;
  (* If the CFA content did not fill the window, the leftover of window 0
     stays reserved (empty): the paper keeps the first-pass area free in
     all logical caches. *)
  let skip_cfa_window () =
    if cfa_bytes > 0 then begin
      let offset = !cursor mod cache_bytes in
      if offset < cfa_bytes then begin
        let window_start = !cursor - offset in
        if !cursor < window_start + cfa_bytes then begin
          holes := (!cursor, window_start + cfa_bytes - !cursor) :: !holes;
          cursor := window_start + cfa_bytes
        end
      end
    end
  in
  let place_seq seq =
    List.iter
      (fun bid ->
        skip_cfa_window ();
        (* A block must not straddle into a CFA window: if it would, move
           past the window. *)
        (if cfa_bytes > 0 then
           let next_window =
             ((!cursor / cache_bytes) + 1) * cache_bytes
           in
           if !cursor + size bid > next_window then begin
             holes := (!cursor, next_window - !cursor) :: !holes;
             cursor := next_window;
             skip_cfa_window ()
           end);
        place bid !cursor;
        cursor := !cursor + size bid)
      seq
  in
  List.iter place_seq other_seqs;
  (* 3. Cold code: fill the holes first, then grow past the end freely. *)
  let holes = ref (List.rev !holes) in
  let place_cold bid =
    let b = size bid in
    let rec try_holes acc = function
      | [] ->
        holes := List.rev acc;
        place bid !cursor;
        cursor := !cursor + b
      | (start, len) :: rest when len >= b ->
        place bid start;
        let rest' =
          if len = b then rest else (start + b, len - b) :: rest
        in
        holes := List.rev_append acc rest'
      | hole :: rest -> try_holes (hole :: acc) rest
    in
    try_holes [] !holes
  in
  List.iter place_cold cold;
  Layout.of_placements prog ~name !placements

let plan_of_chains profile ~cfa_bytes chains =
  let prog = Stc_profile.Profile.program profile in
  let counts = Stc_profile.Profile.counts profile in
  let cfa_seqs, other_seqs = fit_cfa prog ~cfa_bytes chains in
  let cold = ref [] in
  Array.iter
    (fun p ->
      Array.iter
        (fun bid -> if counts.(bid) = 0 then cold := bid :: !cold)
        p.Stc_cfg.Proc.blocks)
    prog.Program.procs;
  { cfa_seqs; other_seqs; cold = List.rev !cold }
