(** Workload driver: run query sets over database variants under an
    installed trace walker, with the per-query parse/optimize auto-walk the
    paper's setup implies ("all queries were run to completion"). *)

type job = { db_label : string; db : Stc_db.Database.t; query : int }

val jobs :
  dbs:(string * Stc_db.Database.t) list -> queries:int list -> job list
(** Cartesian product, databases outermost. *)

val run_traced :
  kernel:Stc_synth.Kernel.t ->
  walker:Stc_trace.Walker.t ->
  ?on_boundary:(job -> unit) ->
  job list ->
  unit
(** Execute every job to completion under the walker: per job, walk the
    parser and optimizer, then run the plan through the instrumented
    executor. [on_boundary] fires before each job (e.g. to place recorder
    marks and reset profile adjacency). *)

val record :
  ?progress:Stc_obs.Progress.t ->
  kernel:Stc_synth.Kernel.t ->
  walker_seed:int64 ->
  dbs:(string * Stc_db.Database.t) list ->
  queries:int list ->
  unit ->
  Stc_trace.Recorder.t
(** Convenience: record the whole block trace of a query set, with one
    mark per job named ["<db>/Q<n>"]. Buffer pools are reset first, so the
    same inputs always produce the same trace. With [?progress], the
    reporter is stepped once per recorded block and finished at the
    end. Nothing here counts: a run's walker and trace statistics are
    counted from the returned recorder ([Stc_core.Pipeline.run]). *)

val job_name : job -> string
