module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Profile = Stc_profile.Profile

let names = [| "A1"; "A2"; "A3"; "A4"; "A5"; "A6"; "A7"; "A8"; "B1" |]

let label bid = if bid >= 0 && bid < Array.length names then names.(bid) else Printf.sprintf "b%d" bid

let graph () =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"figure3" ~subsystem:Stc_cfg.Proc.Executor in
  let blk size = Builder.new_block b ~pid:p ~size in
  let a1 = blk 4 and a2 = blk 3 and a3 = blk 5 and a4 = blk 3 in
  let a5 = blk 4 and a6 = blk 2 and a7 = blk 3 and a8 = blk 4 in
  let b1 = blk 3 in
  Builder.set_term b a1 (Terminator.Fall a2);
  Builder.set_term b a2 (Terminator.Cond { taken = a5; fallthru = a3 });
  Builder.set_term b a3 (Terminator.Fall a4);
  Builder.set_term b a4 (Terminator.Cond { taken = a6; fallthru = a7 });
  Builder.set_term b a5 (Terminator.Jump a7);
  Builder.set_term b a6 (Terminator.Fall a7);
  Builder.set_term b a7 (Terminator.Cond { taken = b1; fallthru = a8 });
  Builder.set_term b a8 Terminator.Ret;
  Builder.set_term b b1 (Terminator.Jump a8);
  Builder.finish_proc b ~pid:p ~entry:a1
    ~blocks:[| a1; a2; a3; a4; a5; a6; a7; a8; b1 |];
  let program = Builder.build b in
  let profile = Profile.create program in
  let node bid count = Profile.inject_block profile bid ~count in
  let edge src dst count = Profile.inject_edge profile ~src ~dst ~count in
  node a1 10;
  node a2 10;
  node a3 6;
  node a4 6;
  node a5 4;
  node a6 1;
  node a7 10;
  node a8 10;
  node b1 1;
  edge a1 a2 10;
  edge a2 a3 6;
  edge a2 a5 4;
  edge a3 a4 6;
  edge a4 a7 5;
  edge a4 a6 1;
  edge a5 a7 4;
  edge a6 a7 1;
  edge a7 a8 9;
  edge a7 b1 1;
  edge b1 a8 1;
  (program, profile, [ a1 ])

let expected_sequences =
  [ [ "A1"; "A2"; "A3"; "A4"; "A7"; "A8" ]; [ "A5" ] ]

let print () =
  let _, profile, seeds = graph () in
  let seqs =
    Stc_layout.Seqbuild.build profile
      ~params:{ Stc_layout.Seqbuild.exec_threshold = 4; branch_threshold = 0.4 }
      ~seeds
  in
  print_endline
    "Figure 3. Trace building example (Exec Threshold 4, Branch Threshold \
     0.4).";
  List.iteri
    (fun i seq ->
      Printf.printf "  %s trace: %s\n"
        (if i = 0 then "Main     " else "Secondary")
        (String.concat " -> " (List.map label seq)))
    seqs
