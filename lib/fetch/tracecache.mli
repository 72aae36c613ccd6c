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

(** {2 One build per fetch cycle}

    {!Engine.Bank} drives a trace cache over its window of {!Packed}
    words: [words] holds packed words at indices [\[0, len)], the rest
    of the array is ignored. Each cycle makes one {!build}; on a miss,
    the cycle's sequential fetch is followed by one {!install} of that
    same build. Neither allocates. *)

type built = private {
  mutable instrs : int;  (** Instructions in the trace. *)
  mutable end_idx : int;  (** Word index right after the trace. *)
  mutable end_off : int;  (** Instruction offset within [end_idx]. *)
}
(** The last {!build}'s trace, for the caller to read. *)

val built : t -> built
(** The trace cache's one build record, rewritten by every {!build}. *)

val build : t -> int array -> len:int -> idx:int -> off:int -> bool
(** [build t words ~len ~idx ~off] builds into {!built} the trace the
    fill unit would store from the fetch address at [(idx, off)]:
    instructions up to the width limit, the branch limit or the end of
    the words. It is [true] on a hit: the indexed entry holds that
    address with the same instruction count, branch count and
    (perfectly predicted) outcome mask. A zero-instruction build is
    never a hit. *)

val install : t -> unit
(** Store the last {!build}'s trace in its entry (the miss path). A
    zero-instruction build installs nothing. *)

val width : t -> int
(** Configured trace width in instructions — bounds how far ahead of the
    current index a build can read, which is what sizes the streaming
    engine's lookahead buffer. *)

val geometry : t -> int * int * int
(** [(entries, width, max_branches)]. Two empty trace caches with equal
    geometry evolve identical contents and hit sequences over the same
    replay, which is what lets the fused replay bank
    ({!Stc_fetch.Engine.Bank}) drive one shared walk for every
    same-geometry trace-cache configuration. *)
