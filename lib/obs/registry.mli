(** The metrics registry: the single object a run threads through the
    pipeline to collect everything observable about it.

    A registry holds
    - named {e counters} and {e gauges}, which enter by name with their
      value ({!add}, {!set}) from results already computed: nothing in a
      simulated structure holds a handle into a registry;
    - an ordered log of structured {e events} ({!event}) — one record per
      experiment cell, exported verbatim to JSONL.

    It holds no timings: where the time went is the {!Trace} timeline's
    business, so an export is a pure function of the run's seed,
    configuration and store state.

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

val create : unit -> t

(** {2 Metrics} *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to counter [name], creating it at [n] when
    absent, so [add t name 0] still exports a zero. Raises
    [Invalid_argument] when [name] is a gauge. *)

val set : t -> string -> float -> unit
(** [set t name x] sets gauge [name] to [x]. Raises [Invalid_argument]
    when [name] is a counter. *)

(** {2 Events} *)

val event : t -> kind:string -> (string * Json.t) list -> unit
(** Append a structured record; exported in insertion order. *)

(** {2 Snapshots} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list

val events : t -> (string * (string * Json.t) list) list
(** [(kind, fields)] in insertion order. *)
