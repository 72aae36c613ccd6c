(** A low-overhead, per-domain structured event tracer.

    Where {!Registry} spans aggregate (total seconds per phase, summed
    over calls and domains), [Trace] keeps the {e timeline}: every
    begin/end/instant/counter event is recorded with its timestamp on
    the domain that emitted it, and the whole run serializes to Chrome
    [trace_event] JSON — open the file in {{:https://ui.perfetto.dev}
    Perfetto} or [chrome://tracing] to see per-domain tracks, or feed it
    to [tools/trace_report] for a terminal summary.

    Concurrency and cost model:

    - Each domain writes into its own preallocated ring buffer (parallel
      arrays, fixed capacity), obtained through domain-local storage on
      its first event. Emission is a few array stores and one clock
      read: no allocation, no lock.
    - Names are interned to ints; pass pre-interned ids ({!intern} once,
      {!begin_}/{!end_} per event) on hot paths. {!span} interns its
      string argument each call (one hashtable lookup after the first) —
      fine for per-cell or per-phase slices, not for per-block loops.
    - A full buffer drops further events on that domain (counted in
      {!dropped}) rather than growing or blocking.
    - Timestamps are clamped monotone per domain, so every exported
      track is well-ordered even if the wall clock steps.

    Disabled tracing is represented by absence: the [ctx.trace] field
    ({!Run.ctx}) is an option, and instrumentation sites match on it —
    [None] costs one branch and produces zero events. *)

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [create ()] makes an empty tracer. [capacity] is per-domain events
    (default 65536); [clock] defaults to [Unix.gettimeofday]. The
    creation instant is the trace epoch: all timestamps are relative to
    it. *)

(** {2 Emission} *)

val intern : t -> string -> int
(** Map a name to its id, allocating one on first sight. Thread-safe. *)

val begin_ : t -> int -> unit
(** Open a slice (Chrome [ph:"B"]) on the calling domain. Slices on one
    domain must nest. *)

val end_ : ?arg:int -> t -> int -> unit
(** Close the innermost slice ([ph:"E"]). [arg] attaches a
    [{"bytes":arg}] payload to the event. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] brackets [f] with {!begin_}/{!end_} on [name]'s id,
    interned on first use (end emitted on exception too). *)

val instant : t -> int -> unit
(** A zero-duration, thread-scoped marker ([ph:"i"]). *)

val counter : t -> int -> int -> unit
(** [counter t id v]: sample value [v] of counter [id] ([ph:"C"]);
    Perfetto renders these as a stepped graph per name. *)

val complete : ?arg:int -> t -> int -> start:float -> unit
(** [complete t id ~start] emits one self-contained slice ([ph:"X"])
    spanning [start] (a {!now} stamp taken earlier on this domain) to
    now — for slices whose name is only known at the end (e.g. store
    hit vs. miss). *)

val now : t -> float
(** Seconds since the trace epoch, for later use with {!complete}. *)

(** {2 Introspection and export} *)

val events : t -> int
(** Events recorded across all domains (drops excluded). *)

val dropped : t -> int
(** Events dropped to full buffers across all domains. *)

val to_json : t -> Json.t
(** The whole trace as a Chrome [trace_event] JSON array: per domain one
    [thread_name] metadata record, then its events in emission order
    with microsecond [ts] relative to the epoch, [pid] 0 and [tid] = the
    domain id. *)

val to_string : t -> string

val write_file : t -> string -> unit
(** {!to_string} plus trailing newline, written to a path. *)
