(** Workload driver: run query sets over database variants under an
    installed trace walker, with the per-query parse/optimize auto-walk the
    paper's setup implies ("all queries were run to completion"). *)

val record :
  kernel:Stc_synth.Kernel.t ->
  walker_seed:int64 ->
  dbs:(string * Stc_db.Database.t) list ->
  queries:int list ->
  unit ->
  Stc_trace.Recorder.t
(** Record the whole block trace of a query set: every job runs to
    completion under one walker seeded with [walker_seed] (per job —
    databases outermost, then queries — a mark named ["<db>/Q<n>"], then the walk of the parser and optimizer,
    then the plan through the instrumented executor). Buffer pools are reset
    first, so the same inputs always produce the same trace. Nothing
    here counts: a run's walker and trace statistics are counted from
    the returned recorder ([Stc_core.Pipeline.run]). *)
