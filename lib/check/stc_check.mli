(** Differential oracles and validators for the simulation pipeline.

    Everything here answers one question: {e is the optimized
    implementation still computing the thing the paper defines?} Three
    families of checks:

    - {!Layouts} — structural validators over any {!Stc_layout.Layout.t}
      (non-overlap, alignment, coverage of executed blocks) plus
      CFA-containment checks against the {!Stc_layout.Mapping.plan} the
      algorithm intended, so a mapping bug cannot hide behind a
      reconstruction of its own output;
    - {!Oracle} — small, deliberately naive list-based reference models
      of the i-cache, the victim buffer, the trace cache and the
      direction predictors, plus an instruction-at-a-time SEQ.3 fetch
      walker. They share no code with [Stc_cachesim] / [Stc_fetch]:
      arrays, bit masks and batched counters on one side, association
      lists and recursion on the other, so a bug must be implemented
      twice to go unnoticed. The oracle is the one reference every
      engine feature is checked against;
    - the differential runners — replay the same traces through the
      oracle and one {!Stc_fetch.Engine.Bank} sweep over every case at
      once (the only engine core), and compare field by field, with a
      lockstep shadow i-cache that reports the {e first diverging
      access} rather than just drifted totals.

    {!run_all} bundles all of it over a {!Stc_core.Pipeline.t}; the
    [stc_repro check] subcommand and the [@check-smoke] alias are thin
    wrappers around it. With [ctx.metrics] it publishes the finished
    report: four [check.*] counters, then one [check.layout] /
    [check.engine] event per subject. *)

(** {1 Layout validators} *)

module Layouts : sig
  type violation =
    | Wrong_block_count of { expected : int; got : int }
        (** The layout does not assign an address to every block. *)
    | Unplaced of { block : int; count : int }
        (** An executed block (dynamic count [count]) has no valid
            placement (missing or negative address). *)
    | Misaligned of { block : int; addr : int }
        (** Address not a multiple of the instruction size. *)
    | Overlap of { block_a : int; block_b : int; addr : int }
        (** Two blocks' byte ranges intersect (at [addr]). *)
    | Plan_not_partition of { block : int; times : int }
        (** The mapping plan mentions a block [times] ≠ 1 times across
            its three parts. *)
    | Cfa_overflow of { block : int; addr : int; limit : int }
        (** A CFA-sequence block ends past the Conflict-Free Area. *)
    | Cfa_intrusion of { block : int; addr : int; window : int }
        (** A second-pass sequence block intrudes into the CFA window
            of logical cache number [window]. *)

  val violation_to_string : violation -> string

  val structure :
    Stc_cfg.Program.t -> Stc_layout.Layout.t -> violation list
  (** Block count, alignment, non-negative addresses, pairwise
      non-overlap. *)

  val coverage :
    Stc_profile.Profile.t -> Stc_layout.Layout.t -> violation list
  (** Every block the profile executed has a valid placement. *)

  val cfa :
    Stc_cfg.Program.t ->
    Stc_layout.Layout.t ->
    cache_bytes:int ->
    cfa_bytes:int ->
    Stc_layout.Mapping.plan ->
    violation list
  (** The plan partitions the block set; every first-pass (CFA) block
      lies wholly inside [\[0, cfa_bytes)]; no second-pass block touches
      any logical cache's CFA window ([offset mod cache_bytes <
      cfa_bytes]). Cold blocks are exempt — the paper lets only the
      rarely-executed code conflict with the CFA. *)

  val all :
    ?cfa_plan:Stc_layout.Mapping.plan * int * int ->
    Stc_profile.Profile.t ->
    Stc_layout.Layout.t ->
    violation list
  (** {!structure} @ {!coverage} @ (with [?cfa_plan = (plan, cache_bytes,
      cfa_bytes)]) {!cfa}. *)
end

(** {1 Reference models} *)

module Oracle : sig
  (** List-based i-cache with victim buffer and pluggable replacement
      (MRU-ordered ways under LRU, install-ordered [(line, rrpv)] pairs
      under the RRIP family); outcome-equivalent to
      {!Stc_cachesim.Icache} by construction. *)
  module Icache : sig
    type t

    val create :
      ?assoc:int ->
      ?line_bytes:int ->
      ?victim_lines:int ->
      ?policy:Stc_cachesim.Icache.policy ->
      size_bytes:int ->
      unit ->
      t
    (** Same defaults as {!Stc_cachesim.Icache.create}. *)
  end

  (** Association-list trace cache (index → entry), rebuilding traces
      with an instruction-at-a-time recursion. *)
  module Tracecache : sig
    type t

    val create : ?entries:int -> unit -> t
    (** Same default entry count as {!Stc_fetch.Tracecache.create}, and
        its default geometry: 16 instructions, at most 3 branches per
        trace. *)
  end

  (** A direction predictor to model: one of {!Stc_fetch.Predictor}'s
      kinds, re-derived over association lists (no code shared with
      {!Stc_fetch.Predictor}), charging [redirect_penalty] cycles per
      mispredicted direction — the oracle's mirror of
      {!Stc_fetch.Engine.prediction}. *)
  type prediction = {
    kind : Stc_fetch.Predictor.kind;
    redirect_penalty : int;
  }

  val fetch :
    ?config:Stc_fetch.Engine.config ->
    ?icache:Icache.t ->
    ?trace_cache:Tracecache.t ->
    ?prediction:prediction ->
    ?on_access:(addr:int -> Stc_cachesim.Icache.outcome -> unit) ->
    Stc_fetch.View.t ->
    Stc_fetch.Engine.result
  (** The SEQ.3 fetch model re-derived from the paper's description,
      supplying one instruction per step instead of one block per step.
      With an FDIP block in the config (and an i-cache), a shared-nothing
      decoupled-frontend model — an ordered association list of in-flight
      prefetches — runs the same begin/demand/advance cycle protocol as
      {!Stc_fetch.Fdip}. [on_access] observes every i-cache access in
      order (the differential runner hooks a lockstep shadow of the real
      cache here); it stays silent under FDIP, whose demand path a
      lockstep shadow cannot mirror. Without [?prediction] (the paper's
      configuration) prediction is perfect and [mispredictions] is 0;
      with it, every executed conditional branch — on the trace-cache
      and the sequential path alike — is predicted at its final
      instruction's address. *)
end

(** {1 Differential runners} *)

(** Which replacement policy a case runs; [P_trrip] takes its
    temperature table from [diff_cases]'s [?temperature]. *)
type case_policy = P_lru | P_srrip | P_trrip

type cache_case = {
  case_name : string;
  size_bytes : int;  (** I-cache size in bytes; [0] = ideal (no i-cache). *)
  assoc : int;
  victim_lines : int;
  tc : bool;  (** Front the engine with a 256-entry trace cache. *)
  policy : case_policy;
  fdip : Stc_fetch.Fdip.config option;
      (** Run the case with a decoupled-frontend prefetcher. *)
  pred : Oracle.prediction option;
      (** Run the case with a direction predictor (a fresh one per
          side). *)
}

type mismatch = { field : string; m_oracle : float; m_engine : float }

type engine_report = {
  er_layout : string;
  er_case : string;
  er_mismatches : mismatch list;
      (** Fields where the oracle and the engine disagree (empty =
          ok). *)
  er_divergence : string option;
      (** First i-cache access where the oracle's outcome differs from
          the real cache's, if any — pinpoints {e where} state first
          forked, not just that totals drifted. *)
}

val diff_cases :
  ?temperature:int array ->
  layout_name:string ->
  Stc_fetch.View.t ->
  cache_case list ->
  engine_report list
(** Replay the view through {!Oracle.fetch} per case and through {e one}
    {!Stc_fetch.Engine.Bank.run_stream} sweep over {!Stc_fetch.View.stream}
    fusing every case's spec — the same feed and the same
    mixed-configuration banks Experiments builds — and
    compare every {!Stc_fetch.Engine.result} field of the two (fresh
    caches and predictors each; the default {!Stc_fetch.Engine.Config},
    with the case's [fdip] block when it has one, so every cache has its
    32-byte line; [P_trrip] cases seed both real and oracle caches from
    [?temperature], default empty = all cold). *)

val diff_icache_stream :
  ?accesses:int ->
  ?policy:Stc_cachesim.Icache.policy ->
  seed:int ->
  assoc:int ->
  victim_lines:int ->
  size_bytes:int ->
  unit ->
  string option
(** Drive the oracle and the real i-cache (both under [?policy],
    default LRU) with the same seeded random address stream, one
    operation in eight a {!Stc_cachesim.Icache.fill_prefetch} on both,
    the rest demand accesses. After every operation the outcomes must
    agree — a real [Prefetch_hit] exactly where the oracle's hit
    consumed a prefetch mark — and so must the eviction counts;
    [Some msg] describes the first operation where they do not. *)

(** {1 The bundle} *)

type layout_report = {
  lr_name : string;
  lr_violations : Layouts.violation list;
}

type report = {
  r_layouts : layout_report list;
      (** Every {!Stc_layout.Algo} registry entry, in presentation
          order. *)
  r_engines : engine_report list;
      (** Fourteen cases over the orig, ops, codestitcher and exttsp
          layouts. Five span Table 3's hardware space, all LRU without
          prefetching (the paper's machine): 8KB direct, 8KB direct +
          16-line victim buffer, 16KB 2-way, 16KB direct + trace cache,
          ideal + trace cache. Two sit at the edges of the engine's
          re-touch skip ({!Stc_cachesim.Icache.retouch_safe}): a one-set
          64-byte 2-way cache, and a two-set 128-byte 2-way cache with a
          4-line victim buffer and a trace cache. Seven exercise
          mechanisms beyond the paper: 16KB
          4-way SRRIP, 16KB 4-way TRRIP, 8KB direct + FDIP, 16KB 4-way
          TRRIP + FDIP, 16KB direct + FDIP + trace cache, 16KB direct +
          bimodal prediction, and 16KB direct + trace cache + gshare
          prediction (3-cycle redirects). *)
  r_icache : (string * string option) list;
      (** Random-stream i-cache differentials per geometry × policy. *)
}

val run_all : ?ctx:Stc_core.Run.ctx -> Stc_core.Pipeline.t -> report
(** Build every registered layout algorithm from the pipeline's profile
    (16KB cache, 4KB CFA, the simulation grid's thresholds), validate
    each against its own plan; run the oracle-vs-engine differential
    ({!diff_cases}) on the test trace over the orig, ops, codestitcher
    and exttsp views, fusing the fourteen cases of [r_engines] into one
    bank per view, with each layout's TRRIP temperature derived from its
    own hotness ({!Stc_cachesim.Temperature.of_blocks}); run the seeded
    i-cache stream differential across LRU, SRRIP and TRRIP geometries. Of
    [ctx], [metrics] receives the finished report's [check.*] counters
    and events, [seed] seeds the address streams. *)

val ok : report -> bool

val print_report : report -> unit
(** Human-readable summary on stdout (one line per subject, violations
    and divergences spelled out). *)
