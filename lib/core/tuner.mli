(** Automatic selection of the STC parameters — the paper's Section 8
    plans to "automatize the process of selecting the thresholds and the
    seeds while obtaining results closer to the knowledge-based
    selection".

    The tuner grid-searches the Exec Threshold, Branch Threshold and CFA
    size, scoring each candidate by fetch bandwidth on the {e Training}
    trace (never the Test trace — the evaluation stays held out), with
    both seed selections in the race. *)

type candidate = {
  t_exec : int;
  t_branch : float;
  t_cfa_kb : int;
  t_seeds : [ `Auto | `Ops ];
}

type outcome = {
  chosen : candidate;
  train_bandwidth : float;
  evaluated : int;  (** Number of candidates scored. *)
}

val tune : ?ctx:Run.ctx -> ?cache_kb:int -> Pipeline.t -> outcome
(** Score every candidate at the given cache size (default 32 KB) on the
    Training trace and return the best (first-seen wins ties). The
    candidates are 2 seed selections × exec {10, 50, 250} ×
    branch {0.1, 0.4} × CFA {4, 8, 16} KB. Each candidate is one
    {!Experiments.cell} over the Training subject: layouts are built in
    a serial prefix through {!Experiments.layout_builder}, then
    {!Experiments.run_cells} scores them — fused per layout, on
    [ctx.jobs] domains, and cached in [ctx.store] like any other cell.
    Neither step writes to [ctx.metrics], store counts included: the
    caller records only the winner's held-out evaluation. *)

val layout_of :
  ?ctx:Run.ctx -> Pipeline.t -> cache_kb:int -> candidate -> Stc_layout.Layout.t
(** Materialize a candidate as a layout (for evaluating it on Test): the
    registry's "auto" or "ops" algorithm at the candidate's thresholds
    and CFA size, built as {!Experiments.layout_builder} does. *)
