(** The run context: one value carrying everything an entry point needs
    to know about {e how} to run — observability sinks, seeding, and
    parallelism — so that APIs take a single [?ctx] instead of growing
    an optional argument for each of them.

    [Stc_core.Run] re-exports this module; library users normally write

    {[
      let ctx =
        Run.default
        |> Run.with_metrics registry
        |> Run.with_seed 1
        |> Run.with_jobs 4
      in
      let pl = Pipeline.run ~ctx () in
      let rows = Experiments.simulate ~ctx pl in ...
    ]}

    The record is transparent: [{ ctx with jobs = 1 }] is fine too. *)

type ctx = {
  metrics : Registry.t option;
      (** Registry collecting counters/gauges/events; [None] = don't. *)
  progress : bool;
      (** Print each {!span}'s wall time on stderr as it ends. *)
  seed : int option;
      (** Master seed; entry points that build randomized state derive
          their sub-seeds from it (see {!Stc_core.Pipeline.seeded}). *)
  jobs : int;
      (** Parallelism for grid phases: domains used by {!Stc_par.Pool}.
          [1] = the exact serial path, never spawning a domain. *)
  store : string option;
      (** Artifact-store directory ({!Stc_store}): entry points consult
          it before recomputing traces, layouts and simulation
          results, and write what they computed back. [None]
          = always recompute. The type is a path, not a store handle, so
          that this module stays below [lib/store] in the dependency
          order; consumers open a handle with [Stc_store.of_ctx]. *)
  trace : Trace.t option;
      (** Timeline tracer ({!Trace}): entry points emit per-phase,
          per-cell and per-replay slices into it, and {!Stc_par.Pool}
          records chunk dispatch when handed the same tracer. [None]
          (the default) disables tracing at the cost of one branch per
          instrumentation site. *)
}

val default : ctx
(** [{ metrics = None; progress = false; seed = None; jobs = 1;
    store = None; trace = None }] — observe nothing, derive nothing, run
    serially, recompute everything. *)

(** {2 Builders} *)

val with_metrics : Registry.t -> ctx -> ctx

val with_progress : bool -> ctx -> ctx

val with_seed : int -> ctx -> ctx

val with_jobs : int -> ctx -> ctx
(** Clamped to at least 1. *)

val with_store : string -> ctx -> ctx
(** Cache artifacts under the given directory (created on first use). *)

val with_trace : Trace.t -> ctx -> ctx
(** Record timeline events into the given tracer. *)

(** {2 Helpers for ctx-threading code} *)

val span : ctx -> string -> (unit -> 'a) -> 'a
(** A {!Trace.span} slice when tracing is on, a plain call otherwise.
    With [ctx.progress] it also times the call and, when it returns,
    writes one [<name>: <seconds>s] line to stderr, so a run prints,
    live, exactly the slices a traced run records. It writes no
    registry, so any domain may call it; lines from concurrent domains
    never interleave. *)
