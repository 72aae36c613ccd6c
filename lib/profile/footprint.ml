module Program = Stc_cfg.Program
module Block = Stc_cfg.Block
module Proc = Stc_cfg.Proc

type t = {
  procs_total : int;
  procs_executed : int;
  blocks_total : int;
  blocks_executed : int;
  instrs_total : int;
  instrs_executed : int;
}

let compute p =
  let prog = Profile.program p in
  let counts = Profile.counts p in
  let blocks_executed = ref 0 and instrs_executed = ref 0 in
  let proc_touched = Array.make (Array.length prog.Program.procs) false in
  Array.iteri
    (fun bid c ->
      if c > 0 then begin
        incr blocks_executed;
        let b = prog.Program.blocks.(bid) in
        instrs_executed := !instrs_executed + b.Block.size;
        proc_touched.(b.Block.proc) <- true
      end)
    counts;
  let sc = Program.static_counts prog in
  {
    procs_total = sc.Program.n_procs;
    procs_executed =
      Array.fold_left (fun acc t -> if t then acc + 1 else acc) 0 proc_touched;
    blocks_total = sc.Program.n_blocks;
    blocks_executed = !blocks_executed;
    instrs_total = sc.Program.n_instrs;
    instrs_executed = !instrs_executed;
  }

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
