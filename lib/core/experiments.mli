(** Reproduction of every table and figure of the paper's evaluation, over
    a {!Pipeline} instance.

    Naming follows the paper: Table 1 (footprint), Figure 2 (cumulative
    popularity), the Section 4.1 reuse statistics, Table 2 (block-type mix
    and determinism), Figure 3 (trace-building worked example — exercised
    in the test suite), Table 3 (i-cache miss rates) and Table 4 (fetch
    bandwidth), plus the threshold/CFA ablation the paper's Section 5.1
    discussion calls for. *)

(** {2 Characterization (Section 4)} *)

val table1 : Pipeline.t -> Stc_profile.Footprint.t

val print_table1 : Stc_profile.Footprint.t -> unit

val print_figure2 : Pipeline.t -> unit
(** The curve plus the headline numbers (blocks for 90 % and 99 %). *)

type reuse_stats = { below_100 : float; below_250 : float; samples : int }

val reuse : Pipeline.t -> reuse_stats
(** Reuse distances of the blocks that concentrate 75% of the Training
    trace's references. *)

val print_reuse : reuse_stats -> unit

val table2 : Pipeline.t -> Stc_profile.Determinism.t

val print_table2 : Stc_profile.Determinism.t -> unit

(** {2 Simulation (Section 7)} *)

type sim_config = {
  exec_threshold : int;  (** Pass-2 Exec Threshold of the STC builder. *)
  branch_threshold : float;
  line_bytes : int;
  miss_penalty : int;
  tc_entries : int;
  grid : (int * int list) list;
      (** (cache KB, CFA KB list) — Table 3/4's row structure. *)
}

val default_sim_config : sim_config
(** The paper's grid: 8/(2,4,6), 16/(4,8,12), 32/(4,8,16,24), 64/(8,16,24);
    32-byte lines, 5-cycle miss penalty, 256-entry trace cache. *)

val grid_params : cache_bytes:int -> cfa_bytes:int -> Stc_layout.Algo.params
(** The layout parameters of {!default_sim_config}'s STC thresholds (Exec
    50, Branch 0.3) at one cache/CFA geometry. *)

type variant = Direct | Two_way | Victim | Ideal | Trace_cache | Tc_ideal

type row = {
  layout : string;
      (** A {!Stc_layout.Algo} registry name: "orig" and "P&H" for the
          baselines, then the CFA-family algorithms selected for the
          grid ("Torr", "auto", "ops", "codestitcher", "exttsp", ...). *)
  cache_kb : int;
  cfa_kb : int option;  (** [None] when the layout has no CFA (orig, P&H). *)
  variant : variant;
  miss_pct : float;  (** I-cache misses per 100 instructions. *)
  bandwidth : float;  (** Instructions per fetch cycle. *)
  instrs_between_taken : float;
  tc_hit_pct : float;  (** Trace-cache hit rate; 0 when no trace cache. *)
  assoc : int;  (** I-cache associativity (1 on the paper's grid). *)
  policy : string;  (** Replacement policy name: "lru", "srrip", "trrip". *)
  prefetch : bool;  (** FDIP enabled. *)
  evictions : int;  (** Non-LRU replacement evictions (0 under LRU). *)
  pf_issued : int;  (** FDIP prefetches issued (0 without FDIP). *)
  pf_useful : int;
  pf_late : int;
}

val row_to_string : row -> string
(** One stable, locale-independent line per row ([%.6f] floats) — the
    golden-regression snapshot format of [tools/golden]. Covers the
    paper-grid fields only; {!ext_row_to_string} adds the extended
    dimensions. *)

val ext_row_to_string : row -> string
(** Stable one-line rendering of an {!extended}-grid row: layout, cache,
    CFA, associativity, policy, prefetch flag, miss rate, bandwidth and
    the prefetch/eviction counters ([tools/golden]'s fourth snapshot). *)

val resolve_layouts :
  string list -> (Stc_layout.Algo.t list, string) result
(** Resolve user-supplied [--layouts] names against the
    {!Stc_layout.Algo} registry. Accepts names, slugs and aliases,
    case-insensitively; [Error] carries a message naming the offender
    and listing every valid choice. Baseline algorithms ("orig",
    "P&H") are always simulated and may not be selected here — naming
    one is an [Error] saying so. *)

val simulate :
  ?ctx:Run.ctx ->
  ?config:sim_config ->
  ?layouts:string list ->
  Pipeline.t ->
  row list
(** Run every configuration of Tables 3 and 4 once over the Test trace
    (each row is one trace-driven simulation). Layout construction is a
    serial prefix; the cells then run on [ctx.jobs] domains ([1] =
    in-process serial, the default).

    [?layouts] selects which CFA-family algorithms populate the per-CFA
    rows (default: every built-in one, in presentation order — see
    {!Stc_layout.Algo.all}). Names are resolved as in
    {!resolve_layouts}; an unknown name raises [Invalid_argument] with
    the same message. The "orig" and "P&H" baseline rows are always
    present. The trace-cache rows of Table 4 appear only when "ops" is
    selected (they are defined over the ops layout).

    Each row is a cell of the grid runner (below): cells whose layouts
    place every block at the same address replay as one
    {!Stc_fetch.Engine.Bank} sweep over one {!Stc_fetch.Stream} of the
    trace, and a domain pool self-schedules whole
    fused groups. Rows, metric exports, store keys and cached-hit
    short-circuiting do not depend on the grouping or the job count.
    The grid runs inside a [simulate-grid] {!Run.span}, with layout
    construction and each fused group in child spans: slices under
    [ctx.trace], stderr lines under [ctx.progress]. With
    [ctx.metrics], every cell adds its result to the [engine.*]
    counters and emits one
    [table34.cell] event carrying the row plus the cell's
    i-cache/trace-cache counters ([cfa_kb] is JSON [null] for CFA-less
    layouts). The pool's domains write nothing to the registry: after
    the join the calling domain publishes each cell in input order, so
    the registry is identical at any job count.

    With [ctx.store], the serial prefix loads previously built layouts by
    content key, and each cell consults its own store handle for its
    engine result before simulating (and saves it after). Each handle is
    published ({!Pipeline.publish_store}) just before its cell's
    [engine.*] counters and event, which a result hit publishes exactly
    as a simulation would, so apart from the [store.*] counters a warm
    run's registry is byte-identical to a cold one. *)

val extended :
  ?ctx:Run.ctx ->
  ?config:sim_config ->
  ?layouts:string list ->
  Pipeline.t ->
  row list
(** The post-paper hardware grid: the first two cache sizes of
    [config.grid] (each at its first CFA point), every selected layout
    (plus "orig"), 4-way set-associative, under the cross product of
    replacement policy (LRU, SRRIP, TRRIP) and FDIP prefetching (off,
    on). TRRIP's per-line temperature table is derived from each
    layout's own hotness ({!Stc_cachesim.Temperature.of_blocks}) in the
    serial prefix. Execution, fusing, store caching, metrics
    ([extended.cell] events, with the policy/prefetch fields and
    counters appended) and determinism guarantees are exactly
    {!simulate}'s. *)

val print_extended : row list -> unit
(** The extended grid as a flat table plus the FDIP-vs-layout headline
    comparison at the smallest extended cache size. *)

val print_table3 : row list -> unit

val print_table4 : row list -> unit

val print_sequentiality : row list -> unit
(** The "instructions between taken branches" headline (orig vs ops). *)

(** {2 The grid runner}

    Every simulation above is a cell of one runner, which the
    {!Extensions} studies and the {!Tuner} share: fused {!Stc_fetch.Engine.Bank}
    sweeps on the [ctx.jobs] pool, per-cell store caching, one
    {!Run.span} per fused group, and events, with {!simulate}'s
    determinism guarantees.

    Cells fuse on (subject, layout content): the same program and
    trace, and layouts with equal address arrays, whatever their names
    or how often they were built. A cell's row still carries its own
    layout's name. Each physical layout is fingerprinted once per grid,
    and two layouts merge only when their arrays are equal, not merely
    their fingerprints. *)

type subject = {
  program : Stc_cfg.Program.t;
  trace : Stc_trace.Recorder.t;  (** Recorded against [program]. *)
}
(** What a cell replays. Subjects are compared by physical identity:
    only cells sharing the program and trace {e physically} fuse, so
    share one subject per trace. *)

val test_subject : Pipeline.t -> subject

type cell

val cell :
  ?config:Stc_fetch.Engine.Config.t ->
  ?assoc:int ->
  ?predictor:Stc_fetch.Predictor.kind * int ->
  table:string ->
  subject ->
  cache_kb:int ->
  Stc_layout.Layout.t ->
  cell
(** A replay against a fresh [cache_kb] LRU i-cache of [assoc] ways
    (default 1), engine [config] (default {!Stc_fetch.Engine.Config.default})
    and, given [(kind, redirect_penalty)], a fresh direction predictor
    (default: perfect prediction). Under [ctx.metrics] it emits a
    [<table>.cell] event like {!simulate}'s, plus [max_branches] when not
    3 and [predictor]/[cond_branches]/[mispredictions] when predicting. *)

val run_cells : ctx:Run.ctx -> cell list -> Stc_fetch.Engine.result list
(** The cells' results in input order. With [ctx.store] every result,
    predicting cells' included, is loaded from and saved to the store. *)

val layout_builder :
  ctx:Run.ctx ->
  training:Stc_trace.Recorder.t ->
  Stc_profile.Profile.t ->
  ?params:Stc_layout.Algo.params ->
  string ->
  Stc_layout.Layout.t
(** [layout_builder ~ctx ~training profile ?params name]: the named
    {!Stc_layout.Algo} layout of [profile] (built from [training]), in a
    [layout-<slug>] trace slice; [params] defaults to the baselines' fixed
    record. [ctx.store] caches it under the profile's own program and
    training-trace fingerprints, through a handle opened for that build
    and published ({!Pipeline.publish_store}) into [ctx.metrics] after
    it. Build in a serial prefix: profiles memoize state that must not
    be raced. *)

val pipeline_layouts :
  ctx:Run.ctx -> Pipeline.t -> ?params:Stc_layout.Algo.params -> string ->
  Stc_layout.Layout.t
(** {!layout_builder} over the pipeline's profile and Training trace. *)

(** {2 Ablation} *)

type ablation_row = {
  a_exec : int;
  a_branch : float;
  a_cfa_kb : int;
  a_miss_pct : float;
  a_bandwidth : float;
}

val ablation :
  ?ctx:Run.ctx ->
  ?cache_kb:int ->
  ?exec_thresholds:int list ->
  ?branch_thresholds:float list ->
  ?cfa_kbs:int list ->
  Pipeline.t ->
  ablation_row list
(** Sweep the STC parameters (ops seeds) at one cache size. Layout
    construction is a serial prefix; sweep points run on [ctx.jobs]
    domains with the same determinism guarantee as {!simulate}.
    (Every ablation point builds its own ops layout, but points whose
    layouts place every block alike share one fused sweep.) With
    [ctx.metrics], each sweep point emits one [ablation.cell] event.
    The sweep runs inside an [ablation-grid] {!Run.span}, as {!simulate}'s
    grid runs inside [simulate-grid]. [ctx.store] caches the swept layouts and per-point engine results
    exactly as in {!simulate}. *)

val ablation_row_to_string : ablation_row -> string
(** Stable one-line rendering, as {!row_to_string}. *)

val print_ablation : ablation_row list -> unit
