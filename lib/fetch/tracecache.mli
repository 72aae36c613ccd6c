(** Trace cache (Rotenberg, Bennett & Smith, MICRO 1996), basic scheme:
    a direct-mapped buffer of dynamic instruction sequences of up to
    [width] instructions and [max_branches] branches, indexed by fetch
    address and matched against the (perfectly) predicted branch outcomes.
    On a hit the whole trace is supplied in one cycle; on a miss the
    sequential engine fetches and the fill unit stores the trace that
    starts at the missed address. *)

type t

val create : ?entries:int -> ?width:int -> ?max_branches:int -> unit -> t
(** Defaults: 256 entries, 16-instruction traces, 3 branches — the paper's
    16 KB trace cache. *)

type trace_info = {
  n_instrs : int;
  n_branches : int;
  outcomes : int;  (** Bitmask of taken/not-taken, bit [i] = [i]th branch. *)
  end_pos : View.pos;  (** Stream position right after the trace. *)
}

(** {2 Packed-view operations}

    Trace construction and hit matching over a compiled {!Packed} view:
    unsafe packed-word reads, allocating only the returned [trace_info],
    and — [_uncounted] — leaving the lookup/hit statistics to the
    caller, which batches them in locals and flushes them with
    {!add_stats}. This is what {!Engine.Bank} drives. *)

val build_trace_packed : Packed.t -> idx:int -> off:int -> trace_info
(** The trace the fill unit would construct from stream position
    [(idx, off)] under the paper's limits (width 16, 3 branches):
    greedily take instructions until the width limit, the branch limit,
    or the end of the stream. Deterministic in the position and the
    stream. *)

val lookup_uncounted : t -> Packed.t -> idx:int -> off:int -> trace_info option
(** Probe with the fetch address at [(idx, off)] and the actual
    (perfectly predicted) upcoming outcomes; [Some info] on a hit.
    Touches neither the lookup nor the hit counter. *)

val fill_packed : t -> Packed.t -> idx:int -> off:int -> unit
(** Insert the trace starting at [(idx, off)] (called on the miss path;
    fills never count statistics). *)

val add_stats : t -> lookups:int -> hits:int -> unit
(** Batch-add to the statistics counters; every {!lookup_uncounted}
    should eventually be accounted here ([lookups] calls, of which
    [hits] returned [Some]). *)

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

val lookups : t -> int

val hits : t -> int

val attach_metrics : t -> Stc_obs.Registry.t -> prefix:string -> unit
(** Register the [lookups]/[hits] counters with a metrics registry under
    [prefix ^ "tc."]. *)

val reset_stats : t -> unit
