(** Packed trace words: one int word per trace index.

    A word carries everything the engines read about one trace index
    under one layout. {!fill} packs one id {!Stc_trace.Segment} straight
    into a caller's array; {!Stream} uses it to fill {!Engine.Bank}'s
    window, which is the one way trace words reach the bank. {!compile}
    packs a whole trace into an immutable image {!t}, for tests and
    benchmarks. Both pack from the same validated
    per-block {!tables}, and a segment-by-segment pack is bit-identical
    to a whole-trace pack: the one cross-index dependency (the taken bit
    looks one block ahead) is supplied explicitly at segment boundaries
    via [next_first].

    Word layout: bits 0–2 flags (taken / branch-end / conditional-end),
    bits 3–21 block size in instructions (up to 2^19-1), bits 22–62
    block byte address (up to 2 TB). An image is immutable after
    compilation and safe to share read-only across domains.

    Packing is one pass over each segment's ids, read straight from its
    Bigarray: each per-block word is gathered once, and an index's taken
    bit is derived when the next index's word is in hand. *)

type t

type tables
(** Per-block-id static words — everything but the per-index taken bit —
    validated once per (program, layout) and shared by every segment
    compiled under it. *)

val tables : Stc_cfg.Program.t -> Stc_layout.Layout.t -> tables
(** Build and validate the per-block tables for a program under a
    layout. Raises [Invalid_argument] if any block size or address
    exceeds the packed word's field widths. *)

val fill :
  tables ->
  int array ->
  pos:int ->
  Stc_trace.Segment.t ->
  next_first:int option ->
  int * int
(** [fill tb words ~pos seg ~next_first] packs [seg] into
    [words.(pos) .. words.(pos + length seg - 1)], writing nothing else,
    and returns the segment's [(instructions, taken branches)].
    [next_first] is the first block id of the {e next} segment ([None]
    at true end of trace) and decides the final index's taken bit — the
    invariant that makes a segment-by-segment pack bit-identical to
    {!compile}. *)

val compile :
  Stc_cfg.Program.t -> Stc_layout.Layout.t -> Stc_trace.Source.t -> t
(** Drain the source and pack the whole trace into one image. *)

val length : t -> int
(** Number of blocks in the image. *)

(** {2 The word array}

    [raw t] is the word array itself (never mutate it; indices
    [>= length t] are padding). {!Stream.of_packed} copies it into the
    bank's window piece by piece. *)

val raw : t -> int array

(** {2 Word fields}

    The one definition of the word layout. A word [w] decodes as:
    - block byte address under the layout: [w lsr addr_shift];
    - block size in instructions: [(w lsr size_shift) land size_mask];
    - taken, [w land taken_bit <> 0]: the transition to the next trace
      index is non-sequential under the layout (the last index counts
      as taken);
    - branch-end, [w land branch_bit <> 0]: the block ends with a branch
      instruction;
    - conditional-end, [w land cond_bit <> 0]: the block ends with a
      conditional branch.

    Hot loops decode with small functions of their own over these
    constants, which the compiler inlines; a call into this module
    cannot be inlined when modules are compiled separately. *)

val taken_bit : int

val branch_bit : int

val cond_bit : int

val size_shift : int

val size_mask : int

val addr_shift : int

(** {2 Stream totals} — precomputed during compilation. *)

val total_instrs : t -> int

val taken_branches : t -> int

val memory_words : t -> int
(** Size of the compiled representation in words (one per trace index);
    lets grid planners reason about cache residency. *)
