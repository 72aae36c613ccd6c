(** A cheap progress reporter for multi-million-event phases (trace
    recording, grid simulation), replacing bare [Printf ... %!] lines.

    [step] is a counter increment plus one comparison; a report line
    (rate, and ETA when a total is known) is emitted only every
    [interval] events, so it is safe on hot paths. Reports go through an
    [emit] function (default: carriage-return overwriting on stderr) and
    never into the metrics registry — they are transient UI, not data. *)

type t

val create :
  ?interval:int ->
  ?total:int ->
  ?clock:(unit -> float) ->
  ?emit:(string -> unit) ->
  label:string ->
  unit ->
  t
(** Defaults: [interval = 1_000_000] events between reports, no known
    total (rate only, no ETA), wall clock, emit to stderr. *)

val step : t -> unit
(** Count one event. *)

val finish : t -> unit
(** Emit a final summary line and stop reporting. With a known total the
    line is [label: N/TOTAL (100%) in T (R/s)] — always rendered, even
    when the last counted events never crossed a report interval (the
    parallel atomic-drain pattern ends this way). Without a total it is
    [label: N events in T (R/s)]. Idempotent. *)
