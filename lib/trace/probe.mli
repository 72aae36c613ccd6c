(** Ambient instrumentation API used by the database engine.

    Engine routines are written once, with probes; when no walker is
    installed the probes are (almost) free no-ops, so the same code also
    runs untraced (e.g. against the relational oracle in tests).

    Typical routine:
    {[
      let k_search = Probe.key "BtSearch"

      let search tree key =
        Probe.routine k_search @@ fun () ->
        ...
        if Probe.cond "found" (cmp = 0) then ...
    ]} *)

type key
(** A routine handle; caches the name → pid resolution per installed
    walker. Create once per routine, at module initialization. *)

val key : string -> key

val with_walker : Walker.t -> (unit -> 'a) -> 'a
(** Install a walker for the duration of [f]. Not reentrant. *)

val routine : key -> (unit -> 'a) -> 'a
(** Wrap a routine body: signals [enter] before and [leave] after. If the
    body raises, the walker is reset (the trace simply ends mid-routine)
    and the exception propagates. *)

val cond : string -> bool -> bool
(** Report the outcome of the pending conditional site; returns the
    outcome so it can be used directly in an [if]. *)
