(** Comparing two metrics JSONL exports (the {!Export} schema) record by
    record — the library core shared by [tools/metrics_diff] and the
    golden-regression harness ([tools/golden]).

    Records are paired by an identifying key (metric name, span path, or
    event kind, with a per-key occurrence number so repeated events pair
    in emission order). Span ["seconds"] fields are never compared (wall
    clock is not deterministic); any metric whose name, event whose kind
    or span whose own name (the last component of its path) starts with
    an ignore prefix is dropped from {e both} sides before pairing, so occurrence numbering stays aligned. Tolerance is
    relative; the default [0.] demands exact equality, which is what two
    same-seed runs must achieve. *)

val diff_records :
  ?tolerance:float ->
  ?ignores:string list ->
  a_label:string ->
  b_label:string ->
  Json.t list ->
  Json.t list ->
  string list * int
(** [diff_records ~a_label ~b_label a b] is [(drift, compared)]: one
    human-readable line per drifting value or unpaired record (labels
    name the sides in those messages), and the number of records of [a]
    that survived the ignore filter. No drift = empty list. *)

val load_file : string -> (Json.t list, string) result
(** Read and parse one JSONL export. [Error] — not an empty record list —
    when the file is missing or unreadable, fails to parse, or contains
    {e zero} records: an empty input can only green-light a vacuous
    comparison, so callers are forced to treat it as a hard failure. *)
