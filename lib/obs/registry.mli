(** The metrics registry: the single object a run threads through the
    pipeline to collect everything observable about it.

    A registry holds
    - named {e counters} and {e gauges}, which enter by name with their
      value ({!add}, {!set}) from results already computed: nothing in a
      simulated structure holds a handle into a registry;
    - a tree of hierarchical timing {e spans} ({!span}) accumulating
      wall-clock seconds and call counts per phase;
    - an ordered log of structured {e events} ({!event}) — one record per
      experiment cell, exported verbatim to JSONL.

    All names are flat strings; dotted segments ([engine.icache_misses],
    [training.walker.blocks]) are a convention, not a structure. A name
    belongs to one metric kind within a registry. The one way out is
    {!Export.to_jsonl}.

    A registry reaches entry points inside a {!Run.ctx}
    ([Run.with_metrics reg Run.default]). A registry is not
    thread-safe: only the calling domain writes to it. Parallel grids
    compute on the pool and publish what their cells report after the
    join, in input order. *)

type t

type clock = unit -> float
(** Seconds, from an arbitrary origin. Only differences are used. *)

val create : ?clock:clock -> unit -> t
(** The default clock is [Unix.gettimeofday]. Tests substitute a fake
    clock to make span timings deterministic. *)

(** {2 Metrics} *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to counter [name], creating it at [n] when
    absent, so [add t name 0] still exports a zero. Raises
    [Invalid_argument] when [name] is a gauge. *)

val set : t -> string -> float -> unit
(** [set t name x] sets gauge [name] to [x]. Raises [Invalid_argument]
    when [name] is a counter. *)

(** {2 Spans} *)

module Span : sig
  type info = {
    path : string;  (** Slash-joined names from the root, e.g. [a/b]. *)
    depth : int;
    calls : int;
    seconds : float;  (** Cumulative wall-clock over all calls. *)
  }
end

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a child span [name] of the current
    span, accumulating its wall-clock time and call count. Nested calls
    build a tree; repeated calls with the same name at the same nesting
    level accumulate into one node. Exception-safe. *)

(** {2 Events} *)

val event : t -> kind:string -> (string * Json.t) list -> unit
(** Append a structured record; exported in insertion order. *)

(** {2 Snapshots} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list

val spans : t -> Span.info list
(** Pre-order walk of the span tree (children in first-call order). *)

val events : t -> (string * (string * Json.t) list) list
(** [(kind, fields)] in insertion order. *)
