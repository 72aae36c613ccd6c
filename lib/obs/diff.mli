(** Comparing two metrics JSONL exports (the {!Export} schema) record by
    record — the library core shared by [tools/metrics_diff] and the
    golden-regression harness ([tools/golden]).

    Metrics pair by name; events pair by their position in the export,
    and an event's [kind] is compared like any other field, so two
    exports whose events interleave differently drift; the meta line
    pairs with the meta line, so a schema change drifts. Every field of
    every record is compared exactly: an export holds no wall-clock
    value, and two same-seed runs must agree byte for byte. Any metric
    whose name or event whose kind starts with an ignore prefix is
    dropped from {e both} sides before pairing, so positions stay
    aligned. *)

val diff_records :
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
