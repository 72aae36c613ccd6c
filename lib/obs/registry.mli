(** The metrics registry: the single object a run threads through the
    pipeline to collect everything observable about it.

    A registry holds
    - named metric handles ({!Metric.Counter}, {!Metric.Gauge}),
      interned here by name ({!counter}, {!gauge}) — the one way a
      metric enters a registry;
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
    thread-safe: parallel grids give each task its own shard and
    {!merge} them after the join. *)

type t

type clock = unit -> float
(** Seconds, from an arbitrary origin. Only differences are used. *)

val create : ?clock:clock -> unit -> t
(** The default clock is [Unix.gettimeofday]. Tests substitute a fake
    clock to make span timings deterministic. *)

(** {2 Metrics} *)

val counter : t -> string -> Metric.Counter.t
(** Intern: returns the existing handle when [name] is already a counter
    of this registry, otherwise registers a fresh one. Raises
    [Invalid_argument] when the name is taken by another metric kind. *)

val gauge : t -> string -> Metric.Gauge.t

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

(** {2 Merging} *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds one registry into another — the join step for
    per-task registry shards filled by parallel workers
    ({!Stc_par.Pool}): counters are {e summed}, gauges take the source's
    value ({e last write wins} over a sequence of merges), span nodes
    sum calls and seconds path-wise, and events are {e appended}
    in the source's insertion order. Merging shards in task-index order
    therefore reproduces the exact event log of a serial run. [src] is
    not modified. Raises [Invalid_argument] when a name is carried by
    different metric kinds in the two registries, or when [into == src]. *)

(** {2 Snapshots} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list

val spans : t -> Span.info list
(** Pre-order walk of the span tree (children in first-call order). *)

val events : t -> (string * (string * Json.t) list) list
(** [(kind, fields)] in insertion order. *)
