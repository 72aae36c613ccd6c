(** Recording basic-block traces.

    The Test-set trace is captured once and replayed through every
    (layout × cache × fetch) configuration, exactly like the paper's
    trace-driven methodology. Replay goes through {!Source} (usually
    {!Source.of_recorder}): the recorder's only trace-reading surface
    is the bounded {!segment} emitter.

    Ids are stored in fixed {!chunk_blocks}-long off-heap chunks.
    Recording only appends, so a recorded position is never rewritten:
    the chunks below {!length} are immutable, and a segment that lies
    inside one chunk is a view of it rather than a copy.

    A recorder holds ids and marks only; it counts nothing. The trace's
    statistics ([{training,test}.trace.blocks]/[.marks]) are {!length}
    and the length of {!marks}, published from the finished recording
    by [Stc_core.Pipeline.run]. *)

type t

val chunk_blocks : int
(** Blocks per chunk (65536, also {!Source.default_segment_blocks}).
    Chunk [c] holds global indices [\[c * chunk_blocks, (c + 1) *
    chunk_blocks)]. *)

val create : unit -> t

val sink : t -> int -> unit
(** Append one block id: the function to install as the walker's
    sink. *)

val mark : t -> string -> unit
(** Record a named position (e.g. a query boundary) at the current length. *)

val length : t -> int
(** Number of recorded block ids. *)

val marks : t -> (string * int) list
(** Marks in recording order with their positions. *)

val segment : t -> base:int -> blocks:int -> Segment.t
(** The segment emitter: up to [blocks] ids starting at global index
    [base] (shorter at the trace tail; empty at [base = length]). A
    range inside one chunk is returned as a zero-copy view of that
    chunk; only a range straddling a chunk boundary is copied into a
    fresh off-heap {!Segment}. Either way the segment never changes:
    later recording only writes past {!length}. This is the producer
    side of {!Source.of_recorder}. *)

val hash : t -> int64
(** {!Stc_util.Fnv} (FNV-1a) over the recorded ids — a cheap fingerprint
    for determinism tests and artifact-store keys. *)

val of_ids : int array -> marks:(string * int) list -> t
(** Build a recorder from given contents: the result equals one that
    had every id {!sink}ed and every mark {!mark}ed. Only tests build
    traces this way; the artifact store loads through {!of_segments}. *)

val of_segments : Segment.t list -> marks:(string * int) list -> t
(** {!of_ids} over the concatenation of [segs] (their bases are
    ignored). A segment that is exactly one whole, chunk-aligned chunk
    is adopted as that chunk without a copy, so the chunked artifact
    store hands its validated segments over as they are; the caller
    must not mutate them afterwards. *)
