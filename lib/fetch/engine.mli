(** The SEQ.3 sequential fetch engine of Rotenberg et al., as configured in
    Section 7.1 of the paper, optionally fronted by a {!Tracecache}:

    - each cycle it accesses two consecutive i-cache lines and supplies
      instructions from the fetch address up to the first taken branch, a
      maximum of [max_branches] branches, or the end of the two-line
      window (16 instructions when aligned), whichever comes first;
    - branch prediction is perfect, so the next fetch address is always
      the address of the next dynamic instruction;
    - an i-cache miss on either line adds a fixed [miss_penalty]; a trace
      cache hit supplies its whole trace in one cycle with no i-cache
      access. *)

(** Engine parameters. {!Config.make} is the only constructor; every
    argument defaults to the paper's Section 7.1 value. The record is
    [private] — fields are readable (the artifact store fingerprints
    them) but new combinations only come from [make], so a future
    parameter can be added without revisiting construction sites. *)
module Config : sig
  type t = private {
    max_branches : int;
    line_bytes : int;
    miss_penalty : int;
    fdip : Fdip.config option;
        (** Decoupled-frontend prefetching ({!Fdip}); [None] (the
            default) is the paper's machine, bit-identical to the
            pre-FDIP engine. Live only when the run also has an
            i-cache. *)
  }

  val default : t
  (** 3 branches, 32-byte lines (8 instructions each), 5-cycle penalty,
      no prefetching. *)

  val make :
    ?max_branches:int ->
    ?line_bytes:int ->
    ?miss_penalty:int ->
    ?fdip:Fdip.config ->
    unit ->
    t
  (** Override any subset of {!default}. *)
end

type config = Config.t

type prediction = {
  pred : Predictor.t;
  redirect_penalty : int;
      (** Cycles lost per mispredicted conditional-branch direction. *)
}

type result = {
  instrs : int;  (** Instructions supplied. *)
  cycles : int;  (** Fetch cycles including miss penalties. *)
  fetch_cycles : int;  (** Cycles excluding penalties. *)
  seq_cycles : int;  (** Fetch cycles served by the sequential engine. *)
  tc_cycles : int;  (** Fetch cycles served by the trace cache. *)
  icache_accesses : int;
  icache_misses : int;
  icache_victim_hits : int;
      (** Lines found in the victim buffer (0 without [~victim_lines]). *)
  tc_lookups : int;
  tc_hits : int;
  taken_branches : int;
  instrs_between_taken : float;
  cond_branches : int;
  mispredictions : int;
  icache_evictions : int;
      (** Valid lines evicted under a non-LRU replacement policy (0 on
          the historical LRU paths; see
          {!Stc_cachesim.Icache.evictions}). *)
  prefetch_issued : int;  (** FDIP prefetches issued (0 without FDIP). *)
  prefetch_completed : int;  (** Prefetch fills that landed. *)
  prefetch_late : int;  (** Demands that caught their line in flight. *)
  prefetch_useful : int;  (** Demand hits on untouched prefetched lines. *)
}

val bandwidth : result -> float
(** Instructions per cycle. *)

val result_fields : result -> (string * float) list
(** Every field of a result as a [(name, value)] list, in declaration
    order — the surface differential checkers ({!Stc_check}) compare
    field by field so a divergence names the counter that drifted. *)

val miss_rate_pct : result -> float
(** I-cache misses per 100 instructions executed (the unit of Table 3). *)

val publish : Stc_obs.Registry.t -> result -> unit
(** Accumulate a result into the registry's [engine.*] counters and tick
    [engine.runs] — exactly what {!run} does internally when its context
    carries metrics. Exposed so a cached replay (an artifact-store hit
    that skips the simulation) can register the identical totals as the
    run it stands in for. *)

val run :
  ?ctx:Stc_obs.Run.ctx ->
  ?config:config ->
  ?icache:Stc_cachesim.Icache.t ->
  ?trace_cache:Tracecache.t ->
  ?prediction:prediction ->
  View.t ->
  result
(** Simulate the whole stream: [run view] is a complete call —
    [?config] defaults to {!Config.default}. [?icache = None] models the
    Ideal (perfect) instruction cache: no misses, no penalties. Without
    [?prediction], branch prediction is perfect, as in the paper; with
    it, every mispredicted conditional-branch direction costs
    [redirect_penalty] cycles. The caches' state and statistics are
    updated in place (pass fresh ones per experiment). Of [?ctx],
    [metrics] accumulates the run's result into the registry's
    [engine.*] counters (totals across every run sharing the registry).

    [run] compiles the view into its {!Packed} form and dispatches to
    {!run_packed}; to replay the same (layout × trace) several times,
    compile once with {!View.pack} and call {!run_packed} directly. *)

val run_packed :
  ?ctx:Stc_obs.Run.ctx ->
  ?config:config ->
  ?icache:Stc_cachesim.Icache.t ->
  ?trace_cache:Tracecache.t ->
  ?prediction:prediction ->
  Packed.t ->
  result
(** The same simulation over a compiled image: a {!Bank} of one
    ({!Bank.spec} of the optional arguments) fed by
    {!Stream.of_packed}. With tracing on, the replay runs inside an
    [engine.run_packed] span. *)

(** Fused replay, and the only engine core: a bank of independent
    per-config engine states (i-cache with optional victim buffer,
    trace cache, direction predictor, FDIP frontend, SEQ.3
    cycle-grouping cursor) advanced from a {e single} sweep over the
    trace, so N configurations over the same layout decode and pull
    each packed word once instead of N times. {!run} and {!run_packed}
    are banks of one.

    Per-slot results — every cache statistic and published [engine.*]
    counter included — do not depend on what else shares the bank: a
    bank of N equals N banks of one (property-tested), and every slot
    is checked field by field against the shared-nothing reference
    model in {!Stc_check.Oracle} by {!Stc_check.diff_cases}, the
    QCheck oracle property and the golden harness. The bank rests on
    two structural facts: SEQ.3 cycle boundaries never depend on
    i-cache outcomes or predictions (misses and mispredictions add
    penalties; they cannot change what a cycle fetches), and empty
    trace caches of equal geometry evolve identical contents over the
    same walk. Slots sharing [(line_bytes, max_branches, trace-cache
    geometry)] therefore advance one shared walk (a {e cohort}); the
    rest step independently over the same sliding window. The bank owns
    that window, and a {!Stream} is the only way trace words enter it.

    Pass fresh caches per spec: the bank owns their state for the
    duration of the run, and a non-lead member's trace-cache statistics
    are synthesized from the cohort's (its entry array is never filled —
    correct because nothing observes trace-cache contents, only
    counters). *)
module Bank : sig
  type spec = {
    config : Config.t;
    icache : Stc_cachesim.Icache.t option;
    trace_cache : Tracecache.t option;
    prediction : prediction option;
  }

  val spec :
    ?config:Config.t ->
    ?icache:Stc_cachesim.Icache.t ->
    ?trace_cache:Tracecache.t ->
    ?prediction:prediction ->
    unit ->
    spec
  (** Same defaults as {!run_packed}'s optional arguments. *)

  val run_packed :
    ?ctx:Stc_obs.Run.ctx ->
    ?stride_words:int ->
    spec array ->
    Packed.t ->
    result array
  (** One sweep over a compiled image; [result.(i)] is the replay of
      [specs.(i)]. This is {!run_stream} over {!Stream.of_packed}: the
      image is copied into the bank's window in pieces of
      {!Stc_trace.Source.default_segment_blocks} words. [stride_words]
      (default 16384) bounds how far any engine state may run ahead of
      the laggard, keeping the words being re-walked cache-resident; it
      affects wall clock only, never results. An empty spec array
      returns [[||]] without pulling the trace. With tracing on, each
      sweep emits one [engine.fused] slice whose argument is the number
      of fused cells. Of [?ctx], [metrics] accumulates every slot's
      result into the registry's [engine.*] counters in input order. *)

  val run_stream :
    ?ctx:Stc_obs.Run.ctx ->
    ?stride_words:int ->
    ?resident_hwm:int ref ->
    spec array ->
    Stream.t ->
    result array
  (** The same sweep over a stream, pulled once for the whole bank:
      the stream fills the tail of the bank's one bounded sliding
      window, which compacts below the slowest engine state's position
      and grows only when a piece does not fit. Results are identical
      to {!run_packed} over the concatenated image at any piece size,
      with peak residency O(largest piece + lookahead) measured into
      [resident_hwm] (high-water mark of the window, in words) when
      given. *)
end
