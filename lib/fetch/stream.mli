(** A pull-based stream of {!Packed} segment images — the fetch-layer
    face of {!Stc_trace.Source}.

    {!create} compiles each pulled id segment against prebuilt
    {!Packed.tables}, holding exactly one segment in flight so the
    successor's first block id can seed the boundary taken bit
    ([Packed.of_segment ~next_first]). Consumed by
    {!Engine.Bank.run_stream}, whose bounded sliding window makes the
    replay bit-identical to the materialized {!Engine.Bank.run_packed}
    at any segment size. *)

type t

val create : Packed.tables -> Stc_trace.Source.t -> t
(** Compile-on-pull over an id source. Peak residency is one id segment
    plus the packed images currently held by the consumer. *)

val of_packed : Packed.t -> t
(** A single-segment stream: yields the image once, then [None]. *)

val of_fun : (unit -> Packed.t option) -> t
(** Wrap a raw pull function (tests). Must yield consecutive packed
    segments whose concatenation is a valid whole-trace image, then
    [None] forever. *)

val next : t -> Packed.t option
