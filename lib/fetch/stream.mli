(** The one feed of packed trace words into {!Engine.Bank}.

    A stream hands the bank its trace piece by piece: {!next_length}
    says how many words the next piece holds, and {!fill} packs that
    piece into the bank's own window. {!create} packs each id segment
    of a {!Stc_trace.Source} straight into the window with
    {!Packed.fill}, so no image of the trace is ever built;
    {!of_packed} copies a compiled image in pieces. Replay through
    {!Engine.Bank.run_stream} is bit-identical at any piece size. *)

type t

val create : Packed.tables -> Stc_trace.Source.t -> t
(** Pack-on-pull over an id source. One id segment is held in flight,
    so the successor's first block id can set the boundary taken bit;
    empty segments are skipped. Nothing else is resident but the
    consumer's window. *)

val of_packed : Packed.t -> t
(** Copy an image out in pieces of
    {!Stc_trace.Source.default_segment_blocks} words. *)

val next_length : t -> int
(** Words in the next piece; [0] once the stream is exhausted. Stable
    until the next {!fill}. *)

val fill : t -> int array -> pos:int -> int * int
(** Write the next piece into [words.(pos) .. words.(pos + next_length
    t - 1)] and move past it. Returns what the piece adds to the trace's
    [(instructions, taken branches)]; over the whole stream the sums are
    the trace's totals. *)
