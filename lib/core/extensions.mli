(** Experiments beyond the paper's tables: its Section 8 future work
    (function inlining, OLTP workloads, automatic threshold selection),
    branch-prediction sensitivity (the paper assumes perfect prediction),
    per-query miss rates, the SEQ.n fetch-unit family and the layout ×
    associativity interaction.

    Each study is a list of {!Experiments.cell}s and one
    {!Experiments.run_cells} call, so it gets the grid runner's fusing,
    [ctx.jobs] pool, [ctx.store] caching and determinism (identical
    results and registry at any job count, cold or warm). Layouts come
    from {!Experiments.layout_builder}, keyed on the profile they are
    trained from (the OLTP mix, the inlined program).

    With [ctx.metrics] a study runs inside an [ext-<study>] span (layout
    builds in [layout-<slug>] children), accumulates [engine.*] counters,
    and emits one [ext-<study>.cell] event per simulation: [ext-inlining],
    [ext-oltp], [ext-prediction], [ext-tuning], [ext-per-query],
    [ext-fetch-units], [ext-associativity]. *)

(** {2 Function inlining (code expansion)} *)

type inline_row = {
  i_variant : string;  (** "base" or "inlined". *)
  i_layout : string;
  i_miss : float;
  i_ipc : float;
  i_ibt : float;  (** Instructions between taken branches. *)
}

type inline_report = {
  inl_sites : int;
  inl_growth_pct : float;
  inl_rows : inline_row list;
}

val inlining :
  ?ctx:Run.ctx ->
  ?config:Stc_layout.Inline.config ->
  ?cache_kb:int ->
  ?cfa_kb:int ->
  Pipeline.t ->
  inline_report

(** {2 OLTP workload} *)

type oltp_row = {
  o_layout : string;
  o_miss : float;
  o_ipc : float;
  o_ibt : float;
}

type oltp_report = {
  oltp_trace_blocks : int;
  oltp_cache_kb : int;  (** The i-cache size the rows were run at. *)
  oltp_rows : oltp_row list;
}

val oltp :
  ?ctx:Run.ctx ->
  ?train_txns:int ->
  ?test_txns:int ->
  ?cache_kb:int ->
  Pipeline.t ->
  oltp_report
(** Train the layouts on one OLTP transaction mix and evaluate on a
    different one (both on the B-tree database). *)

(** {2 Branch prediction sensitivity} *)

type prediction_row = {
  p_layout : string;
  p_predictor : string;
  p_accuracy : float;
  p_ipc : float;
}

val prediction :
  ?ctx:Run.ctx -> ?cache_kb:int -> ?cfa_kb:int -> Pipeline.t -> prediction_row list
(** One cell per (layout, predictor), 3-cycle redirect penalty; the
    accuracy is {!accuracy_pct} of the cell's (storable) result. *)

val accuracy_pct : Stc_fetch.Engine.result -> float
(** [100 * (cond_branches - mispredictions) / cond_branches] (100 with
    none): a fresh predictor is consulted once per conditional branch,
    so this is its {!Stc_fetch.Predictor.accuracy_pct}. *)

(** {2 Per-query breakdown} *)

type query_row = {
  q_name : string;  (** e.g. "btree/Q6". *)
  q_blocks : int;
  q_cache_kb : int;  (** The i-cache size the row was run at. *)
  q_miss_orig : float;
  q_miss_ops : float;
}

val per_query : ?ctx:Run.ctx -> ?cache_kb:int -> Pipeline.t -> query_row list
(** I-cache miss rates per Test query (using the recorder marks), under
    the original and the ops layouts. Caches are cold at each query start
    (pessimistic, but comparable across queries). *)

(** {2 Fetch unit width (SEQ.1 / SEQ.2 / SEQ.3)} *)

type seqn_row = {
  s_layout : string;
  s_max_branches : int;
  s_ipc : float;
}

val fetch_units : ?ctx:Run.ctx -> ?cache_kb:int -> Pipeline.t -> seqn_row list
(** The Rotenberg et al. sequential-engine family: how many branches a
    fetch block may contain. The paper evaluates SEQ.3; this quantifies
    what the choice is worth on the database workload. *)

(** {2 Associativity interaction} *)

type assoc_row = {
  a_layout : string;
  a_assoc : int;
  a_cache_kb : int;  (** The i-cache size the row was run at. *)
  a_miss : float;
  a_ipc : float;
}

val associativity : ?ctx:Run.ctx -> ?cache_kb:int -> Pipeline.t -> assoc_row list
(** The paper only pits the 2-way cache against software layouts on the
    {e original} code; this measures both dimensions together — how much
    of the layout benefit survives once the cache is associative. *)

(** {2 Automatic threshold selection} *)

type tuning_report = {
  tu_outcome : Tuner.outcome;
  tu_held_out : (string * float * float) list;
      (** (label, IPC, misses per 100 instructions) on Test. *)
}

val tuning : ?ctx:Run.ctx -> ?cache_kb:int -> Pipeline.t -> tuning_report
(** Run {!Tuner.tune} on the Training trace (which records nothing into
    [ctx.metrics]), then evaluate the chosen configuration and the
    paper's hand-picked defaults on the Test trace. *)

(** {2 Printing} *)

val print_all : ?ctx:Run.ctx -> Pipeline.t -> unit
(** Run the seven studies in the order above and print their tables,
    separated by blank lines. *)
