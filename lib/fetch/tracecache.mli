(** Trace cache (Rotenberg, Bennett & Smith, MICRO 1996), basic scheme:
    a direct-mapped buffer of dynamic instruction sequences of up to
    [width] instructions and [max_branches] branches, indexed by fetch
    address and matched against the (perfectly) predicted branch outcomes.
    On a hit the whole trace is supplied in one cycle; on a miss the
    sequential engine fetches and the fill unit stores the trace that
    starts at the missed address.

    A trace cache holds its entries only and counts nothing: the lookup
    and hit statistics are counted by whoever drives it
    ({!Engine.Bank} counts them per cohort and builds every result field
    itself). Pass a fresh one per simulation: its contents carry over
    from one use to the next. *)

type t

val create : ?entries:int -> ?width:int -> ?max_branches:int -> unit -> t
(** Defaults: 256 entries, 16-instruction traces, 3 branches — the paper's
    16 KB trace cache. Raises [Invalid_argument] naming the argument
    unless [entries] is a power of two, [width >= 1] and
    [max_branches >= 1]. *)

type trace_info = {
  n_instrs : int;
  n_branches : int;
  outcomes : int;  (** Bitmask of taken/not-taken, bit [i] = [i]th branch. *)
  end_pos : View.pos;  (** Stream position right after the trace. *)
}

(** {2 Packed-word operations}

    Trace construction and hit matching over {!Packed} words, by unsafe
    word reads, allocating only the returned [trace_info].
    {!Engine.Bank} drives them over its window: [words] holds packed
    words at indices [\[0, len)], the rest of the array is ignored. *)

val lookup :
  t -> int array -> len:int -> idx:int -> off:int -> trace_info option
(** Probe with the fetch address at [(idx, off)] and the actual
    (perfectly predicted) upcoming outcomes; [Some info] on a hit, where
    [info] is the trace the fill unit would build from that position:
    instructions up to the width limit, the branch limit or the end of
    the words. *)

val fill : t -> int array -> len:int -> idx:int -> off:int -> unit
(** Insert the trace starting at [(idx, off)] (called on the miss
    path). *)

val width : t -> int
(** Configured trace width in instructions — bounds how far ahead of the
    current index a fill can read, which is what sizes the streaming
    engine's lookahead buffer. *)

val geometry : t -> int * int * int
(** [(entries, width, max_branches)]. Two empty trace caches with equal
    geometry evolve identical contents and hit sequences over the same
    replay, which is what lets the fused replay bank
    ({!Stc_fetch.Engine.Bank}) drive one shared walk for every
    same-geometry trace-cache configuration. *)
