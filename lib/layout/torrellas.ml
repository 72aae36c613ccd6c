module Profile = Stc_profile.Profile
module Program = Stc_cfg.Program
module Block = Stc_cfg.Block

let plan profile ~seq_params ~cfa_bytes =
  let prog = Profile.program profile in
  let n = Array.length prog.Program.blocks in
  let counts = Profile.counts profile in
  let seqs =
    Seqbuild.build profile ~params:seq_params ~seeds:(Stc.auto_seeds profile)
  in
  (* Most popular individual blocks, by weight, until the CFA is full. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      if counts.(a) <> counts.(b) then compare counts.(b) counts.(a)
      else compare a b)
    order;
  let in_cfa = Array.make n false in
  let used = ref 0 in
  (try
     Array.iter
       (fun bid ->
         if counts.(bid) = 0 then raise Exit;
         let b = Block.byte_size prog.Program.blocks.(bid) in
         if !used + b <= cfa_bytes then begin
           in_cfa.(bid) <- true;
           used := !used + b
         end
         else raise Exit)
       order
   with Exit -> ());
  (* CFA content in popularity-rank order: the blocks are preserved
     {e individually}, pulled out of their sequences — which is exactly
     what breaks sequential execution when the CFA grows (Section 7.3's
     critique of this layout). *)
  let covered = Array.make n false in
  Seqbuild.covered seqs covered;
  let cfa_blocks =
    Array.to_list order |> List.filter (fun bid -> in_cfa.(bid))
  in
  (* Sequences with the pulled-out blocks removed. *)
  let other_seqs =
    List.filter_map
      (fun seq ->
        match List.filter (fun bid -> not in_cfa.(bid)) seq with
        | [] -> None
        | s -> Some s)
      seqs
  in
  let cold = ref [] in
  Array.iter
    (fun p ->
      Array.iter
        (fun bid ->
          if (not covered.(bid)) && not in_cfa.(bid) then cold := bid :: !cold)
        p.Stc_cfg.Proc.blocks)
    prog.Program.procs;
  { Mapping.cfa_seqs = [ cfa_blocks ]; other_seqs; cold = List.rev !cold }
