(** Serializing a finished {!Registry} to JSONL — the one way metrics
    leave a run (the [BENCH_*.json]-style perf-trajectory artifacts,
    diffed by [tools/metrics_diff]).

    JSONL schema, one object per line, in this order:
    - [{"type":"meta","schema":3}] — 2 made cell events use [null] (not
      [-1]) for the missing [cfa_kb] of CFA-less layouts; 3 added the
      histo quantile fields
    - [{"type":"counter","name":N,"value":I}] — sorted by name
    - [{"type":"gauge","name":N,"value":F}] — sorted by name
    - [{"type":"histo","name":N,"total":I,"p50":F,"p90":F,"p99":F,
      "buckets":[[lo,hi,w],...]}] — the quantiles are bucket lower
      bounds ({!Stc_util.Stats.weighted_percentile}), exact under shard
      merges, [null] when the histogram is empty; {!Diff} treats them as
      optional so schema-2 exports still compare clean
    - [{"type":"span","path":P,"depth":D,"calls":I,"seconds":F}] —
      pre-order; [seconds] is wall-clock and thus non-deterministic
      (comparison tools must ignore it)
    - [{"type":"event","kind":K, ...fields]] — insertion order *)

val to_jsonl : Registry.t -> string
(** The whole registry as a JSONL document (trailing newline included). *)

val write_file : Registry.t -> string -> unit
(** [write_file t path] writes {!to_jsonl} to [path]. *)
