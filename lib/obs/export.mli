(** Serializing a finished {!Registry} to JSONL — the one way metrics
    leave a run, compared by [tools/metrics_diff] and [tools/golden].
    Every record is deterministic, so two exports of the same seed,
    configuration and store state are byte-identical at any [--jobs].

    JSONL schema, one object per line, in this order:
    - [{"type":"meta","schema":3}] — 2 made cell events use [null] (not
      [-1]) for the missing [cfa_kb] of CFA-less layouts; 3 added
      quantile fields to histogram records, which exports no longer
      carry (nor the span records with wall-clock seconds that schema 3
      also had)
    - [{"type":"counter","name":N,"value":I}] — sorted by name
    - [{"type":"gauge","name":N,"value":F}] — sorted by name
    - [{"type":"event","kind":K, ...fields]] — insertion order *)

val to_jsonl : Registry.t -> string
(** The whole registry as a JSONL document (trailing newline included). *)

val write_file : Registry.t -> string -> unit
(** [write_file t path] writes {!to_jsonl} to [path]. *)
