(** The one way trace data flows to consumers: a pull-based stream of
    bounded off-heap {!Segment}s.

    Every producer — a {!Recorder} (a fresh recording, or one the
    artifact store loaded), a list of segments, a plain id array — is
    adapted to this interface, and every consumer (profile building,
    packing, [Stc_fetch.Stream]'s feed of the replay bank) pulls
    segments through it. A source is single-shot: once {!next_segment}
    returns [None] it stays exhausted; mint a fresh source per
    replay.

    A recorder's segments are zero-copy views of its immutable chunks
    (see {!Recorder.segment}), so streaming a recorded trace copies no
    ids. Consumers must treat every segment as read-only.

    Segment boundaries are invisible to consumers' {e results}: replay
    through a source is bit-identical to replay over the materialized
    trace at any segment size (property-tested), while peak residency
    stays O(segments in flight × segment size). *)

type t

val next_segment : t -> Segment.t option
(** Pull the next segment; [None] when the trace is exhausted. *)

val total_blocks : t -> int
(** Blocks the source will yield in all. Every constructor knows this
    count before the first segment; {!to_array} checks it. *)

val default_segment_blocks : int
(** Default producer segment size (65536 blocks ≈ 512 KB of ids, the
    {!Recorder.chunk_blocks} chunk size): large enough that per-segment
    overhead (compile setup, store round-trips) is noise, small enough
    that a handful in flight stay cache- and memory-friendly. See
    EXPERIMENTS.md for how to pick. *)

val of_recorder : ?segment_blocks:int -> ?lo:int -> ?hi:int -> Recorder.t -> t
(** Stream a recorded trace as segments of at most [segment_blocks]
    (default {!default_segment_blocks}), restricted to global indices
    [\[lo, hi)] when given (the full trace otherwise). Segments are cut
    on recorder chunk boundaries as well, so each is a zero-copy view of
    an immutable chunk; with an unaligned [lo] the first segment ends at
    the next chunk boundary. *)

val of_segments : Segment.t list -> t
(** The bounded in-memory adapter: yield exactly these segments, in
    order. The list defines the stream — callers are responsible for
    consecutive bases (as {!of_array} slicing produces). *)

val of_array : ?segment_blocks:int -> int array -> t
(** Slice a plain id array into segments (tests; also {!of_segments}'
    usual feeder). *)

val iter : t -> (int -> unit) -> unit
(** Drain the source, feeding every block id in order to the consumer —
    the streamed replacement for the old [Recorder.replay]. *)

val to_array : t -> int array
(** Drain the source into a heap array (the explicit materialization
    point for consumers that need random access, e.g. the reference
    oracle's {!Stc_fetch.View}). *)
