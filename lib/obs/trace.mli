(** A structured event tracer: the run's timeline, and the one place a
    run records where its time went. The {!Registry} counts; [Trace]
    times: every begin/end/counter/complete event is recorded with its
    timestamp on the domain that emitted it, and the whole run
    serializes to Chrome [trace_event] JSON — open the file in
    {{:https://ui.perfetto.dev} Perfetto} or [chrome://tracing] to see
    per-domain tracks, or feed it to [tools/trace_report] for a terminal
    summary.

    Cost model: instrumentation sites emit per phase, layout build, fused
    group, pool chunk or store operation, never per trace block — a few
    hundred to a few thousand events per run. Every event is one record
    appended to one mutex-guarded log, so the tracer's memory follows
    the events it holds, whatever the number of domains that emit.
    Timestamps are clamped monotone per domain on export, so every track
    is well-ordered even if the wall clock steps.

    Disabled tracing is represented by absence: the [ctx.trace] field
    ({!Run.ctx}) is an option, and instrumentation sites match on it —
    [None] costs one branch and produces zero events. *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [create ()] makes an empty tracer; [clock] defaults to
    [Unix.gettimeofday]. The creation instant is the trace epoch: all
    timestamps are relative to it. *)

val now : t -> float
(** Seconds since the trace epoch, for later use with {!complete}. *)

(** {2 Emission} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] brackets [f] with a begin and an end event (Chrome
    [ph:"B"]/[ph:"E"]) on the calling domain, the end emitted on
    exception too. Spans on one domain nest. *)

val complete : ?arg:int -> t -> string -> start:float -> unit
(** [complete t name ~start] emits one self-contained slice ([ph:"X"])
    spanning [start] (a {!now} stamp taken earlier on this domain) to
    now — for slices whose name is only known at the end (e.g. store
    hit vs. miss). [arg] attaches a [{"bytes":arg}] payload. *)

val counter : t -> string -> int -> unit
(** [counter t name v]: sample value [v] of counter [name] ([ph:"C"]);
    Perfetto renders these as a stepped graph per name. *)

(** {2 Introspection and export} *)

val events : t -> int
(** Events recorded across all domains. *)

val write_file : t -> string -> unit
(** Write the trace to a path as a Chrome [trace_event] JSON array and a
    trailing newline: per domain, in domain-id order, one [thread_name]
    metadata record, then its events in emission order with microsecond
    [ts] relative to the epoch, [pid] 0 and [tid] = the domain id. *)
