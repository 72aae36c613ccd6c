(** Workload driver: run query sets over database variants under an
    installed trace walker, with the per-query parse/optimize auto-walk the
    paper's setup implies ("all queries were run to completion"). *)

type job = { db_label : string; db : Stc_db.Database.t; query : int }

val jobs :
  dbs:(string * Stc_db.Database.t) list -> queries:int list -> job list
(** Cartesian product, databases outermost. *)

val record :
  ?progress:Stc_obs.Progress.t ->
  kernel:Stc_synth.Kernel.t ->
  walker_seed:int64 ->
  dbs:(string * Stc_db.Database.t) list ->
  queries:int list ->
  unit ->
  Stc_trace.Recorder.t
(** Record the whole block trace of a query set: every job runs to
    completion under one walker seeded with [walker_seed] (per job, a
    mark named ["<db>/Q<n>"], then the walk of the parser and optimizer,
    then the plan through the instrumented executor). Buffer pools are reset
    first, so the same inputs always produce the same trace. With
    [?progress], the reporter is stepped once per recorded block and
    finished at the end. Nothing here counts: a run's walker and trace
    statistics are counted from the returned recorder
    ([Stc_core.Pipeline.run]). *)

val job_name : job -> string
