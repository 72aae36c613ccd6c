(** The trace-building worked example of Figure 3.

    The figure in the paper is partially garbled in the available text, so
    this graph is a faithful reconstruction of every behaviour the paper's
    prose describes: starting from seed A1 the greedy builder follows the
    most likely edge out of each block, producing the main trace
    A1 → … → A8; the transition to B1 is discarded by the Branch
    Threshold (and B1's weight keeps it below the Exec Threshold); the
    rejected-but-hot transition A2 → A5 is noted and later starts a
    secondary trace; and A6 starts nothing because its weight is below the
    Exec Threshold. Thresholds as in the paper: ExecThresh 4,
    BranchThresh 0.4. *)

val graph :
  unit -> Stc_cfg.Program.t * Stc_profile.Profile.t * int list
(** The weighted graph and the seed list ([A1]). *)

val label : int -> string
(** Human-readable block names ("A1" … "A8", "B1"). *)

val expected_sequences : string list list
(** What {!Stc_layout.Seqbuild.build} must produce on this graph at the
    paper's thresholds: [[A1..A8]; [A5]]. *)

val print : unit -> unit
(** Build the sequences from {!graph} at the paper's thresholds and print
    them on stdout, main trace first. *)
