(** A basic-block trace seen through a code layout: the dynamic
    instruction stream the reference oracle ([Stc_check.Oracle])
    consumes with random access. {!create} drains a
    {!Stc_trace.Source} and materializes the ids — the View is
    deliberately the non-streaming path; {!stream} feeds the same trace
    to the engine the way the simulation grid does.

    Positions are (trace index, instruction offset inside that block).
    Whether a transition is a {e taken} branch is a property of the layout:
    it is taken exactly when the next block does not start where the
    current one ends. *)

type t

type pos = { idx : int; off : int }

val create :
  Stc_cfg.Program.t -> Stc_layout.Layout.t -> Stc_trace.Source.t -> t
(** Drains the source (single-shot — mint a fresh source per view) and
    builds the layout's {!Packed.tables} once. Raises [Invalid_argument]
    if a block size or address exceeds the packed word's fields. *)

val length : t -> int
(** Number of blocks in the trace. *)

val block_size : t -> int -> int
(** Instructions in the block at trace index [idx]. *)

val has_branch : t -> int -> bool
(** Whether that block ends with a branch instruction. *)

val is_cond : t -> int -> bool
(** Whether that block ends with a {e conditional} branch (the only kind
    whose direction needs predicting; unconditional transfers, calls and
    returns are BTB/return-stack material). *)

val block_addr : t -> int -> int
(** Byte address of the block at trace index [idx] under the layout. *)

val addr : t -> pos -> int
(** Byte address of the instruction at [pos]. *)

val taken : t -> int -> bool
(** [taken t idx]: the transition from trace index [idx] to [idx + 1] is
    non-sequential under the layout. The last index counts as taken. *)

val taken_branches : t -> int
(** Total taken transitions — denominator of the paper's "instructions
    executed between taken branches". *)

val instrs_between_taken : t -> float

val stream : t -> Stream.t
(** A fresh {!Stream.create} over the view's ids and tables: the feed
    {!Engine.run} and the oracle differential replay, the same one the
    simulation grid's fused groups use. Its words answer every accessor
    above identically. *)
