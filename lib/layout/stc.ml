module Profile = Stc_profile.Profile
module Program = Stc_cfg.Program
module Proc = Stc_cfg.Proc

type params = { seq : Seqbuild.params; cache_bytes : int; cfa_bytes : int }

let params ?exec_threshold ?branch_threshold ~cache_bytes ~cfa_bytes () =
  let d = Seqbuild.default_params in
  let branch_threshold =
    Option.value ~default:d.Seqbuild.branch_threshold branch_threshold
  in
  (* a probability: above 1 no transition can meet it (NaN fails too) *)
  if not (branch_threshold >= 0.0 && branch_threshold <= 1.0) then
    invalid_arg
      (Printf.sprintf "Stc.params: branch_threshold must be in [0, 1], got %g"
         branch_threshold);
  {
    seq =
      {
        Seqbuild.exec_threshold =
          Option.value ~default:d.Seqbuild.exec_threshold exec_threshold;
        branch_threshold;
      };
    cache_bytes;
    cfa_bytes;
  }

let entries_by_popularity profile procs =
  let weighted =
    List.filter_map
      (fun p ->
        let c = Profile.proc_entry_count profile p.Proc.pid in
        if c > 0 then Some (p.Proc.entry, c) else None)
      procs
  in
  let sorted =
    List.sort
      (fun (e1, c1) (e2, c2) ->
        if c1 <> c2 then compare c2 c1 else compare e1 e2)
      weighted
  in
  List.map fst sorted

let auto_seeds profile =
  let prog = Profile.program profile in
  entries_by_popularity profile (Array.to_list prog.Program.procs)

let ops_seeds profile =
  let prog = Profile.program profile in
  entries_by_popularity profile
    (List.filter
       (fun p -> p.Proc.subsystem = Proc.Executor)
       (Array.to_list prog.Program.procs))

let cold_blocks prog covered =
  let cold = ref [] in
  Array.iter
    (fun p ->
      Array.iter
        (fun bid -> if not covered.(bid) then cold := bid :: !cold)
        p.Proc.blocks)
    prog.Program.procs;
  List.rev !cold

let seq_bytes prog seqs =
  List.fold_left
    (fun acc seq ->
      List.fold_left
        (fun acc bid ->
          acc + Stc_cfg.Block.byte_size prog.Program.blocks.(bid))
        acc seq)
    0 seqs

(* The paper sizes the CFA by the thresholds of the first pass; we go the
   other way round: given the CFA size, find (by bisection on the Exec
   Threshold, with a stricter Branch Threshold) the first-pass sequences
   that just fill it. *)
let first_pass profile ~seeds ~params =
  if params.cfa_bytes = 0 then []
  else begin
    let prog = Profile.program profile in
    let branch = Float.max params.seq.Seqbuild.branch_threshold 0.4 in
    let try_threshold t =
      Seqbuild.build profile
        ~params:{ Seqbuild.exec_threshold = t; branch_threshold = branch }
        ~seeds
    in
    let rec bisect lo hi best =
      (* invariant: threshold [hi] produces sequences that fit *)
      if lo >= hi then best
      else begin
        let mid = (lo + hi) / 2 in
        let seqs = try_threshold mid in
        if seq_bytes prog seqs <= params.cfa_bytes then
          bisect lo mid seqs
        else bisect (mid + 1) hi best
      end
    in
    let max_count =
      Array.fold_left max 1 (Profile.counts profile)
    in
    bisect 1 (max_count + 1) []
  end

let plan profile ~params ~seeds =
  let prog = Profile.program profile in
  let n = Array.length prog.Program.blocks in
  (* pass 1: hot, whole sequences for the Conflict-Free Area *)
  let pass1 = first_pass profile ~seeds ~params in
  let cfa_seqs, spill =
    Mapping.fit_cfa prog ~cfa_bytes:params.cfa_bytes pass1
  in
  let visited = Array.make n false in
  Seqbuild.covered cfa_seqs visited;
  (* pass 2: the remaining sequences, with the base thresholds *)
  let other_seqs =
    spill @ Seqbuild.build ~visited profile ~params:params.seq ~seeds
  in
  let covered = Array.make n false in
  Seqbuild.covered cfa_seqs covered;
  Seqbuild.covered other_seqs covered;
  let cold = cold_blocks prog covered in
  { Mapping.cfa_seqs; other_seqs; cold }

let layout profile ~name ~params ~seeds =
  Mapping.map_plan (Profile.program profile) ~name
    ~cache_bytes:params.cache_bytes ~cfa_bytes:params.cfa_bytes
    (plan profile ~params ~seeds)
