(** The trace walker: a pushdown interpreter over compiled {!Bytecode} that
    converts the probe events of instrumented routines into the dynamic
    basic-block trace, and walks generated (auto) procedures on its own by
    sampling their per-site probabilities.

    This plays the role the paper's binary instrumentation played: the
    output is the exact sequence of basic-block ids executed.

    A walker holds its activation stack and sampling state only; it
    counts nothing. Every id it emits goes to the sink, so the
    [{training,test}.walker.blocks]/[.instrs] statistics are counted
    from the recorded trace by [Stc_core.Pipeline.run]. *)

exception Desync of string
(** Raised when the event stream does not match the skeleton (an
    instrumentation bug): wrong site name, unexpected event, or a call to a
    routine that is not among the declared targets. *)

type t

val create :
  program:Stc_cfg.Program.t ->
  code:Bytecode.t option array ->
  seed:int64 ->
  sink:(int -> unit) ->
  t
(** [create ~program ~code ~seed ~sink]: [code.(pid)] is the bytecode of
    procedure [pid] ([None] for procedures that are never walked, e.g. cold
    filler). [seed] drives the sampling of auto-walked decision sites.
    Every executed block id is passed to [sink]. *)

val pid_of_name : t -> string -> int
(** Procedure id by name. Raises [Not_found]. *)

(** {2 Events from instrumented routines} *)

val enter : t -> int -> unit
(** Procedure [pid] was entered — either as a trace root (empty stack) or
    as the callee of the call site the walker is parked at. *)

val cond : t -> string -> bool -> unit
(** Outcome of the pending conditional site. The site name is checked. *)

val leave : t -> unit
(** The current routine returned. *)

val depth : t -> int
(** Current activation-stack depth (0 when idle). *)

val reset : t -> unit
(** Drop all activations (used when an exception unwinds the engine). *)

(** {2 Auto execution} *)

val auto_run : t -> int -> unit
(** [auto_run t pid] walks procedure [pid] (and the helpers it calls)
    purely by sampling; used for generated startup / parser / optimizer
    code. The stack must be empty. *)
