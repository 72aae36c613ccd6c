(** Structured control-flow skeletons for instrumented routines.

    Every routine of the miniature database engine carries a skeleton
    describing the shape of the compiled code the paper would have profiled:
    straight-line runs, conditionals, loops, calls. The skeleton is compiled
    to basic blocks (see {!Bytecode}) and, at run time, the routine's probe
    events steer a walker through those blocks, producing the dynamic
    basic-block trace.

    The same DSL describes the {e generated} helper and filler procedures;
    for those, each decision site carries a probability ([~p]) and the
    walker samples instead of waiting for probe events. *)

type stmt =
  | Straight of int  (** [n] instructions of straight-line code. *)
  | If of { site : string; p_true : float; then_ : stmt list; else_ : stmt list }
  | While of { site : string; p_true : float; body : stmt list }
      (** Top-test loop; the site fires once per test, [true] to iterate. *)
  | Do_while of { site : string; p_true : float; body : stmt list }
      (** Bottom-test loop; the site fires after each iteration, [true] to
          go around again. *)
  | Call of string  (** Direct call to an instrumented routine. *)
  | Icall of { site : string; targets : string list }
      (** Indirect call; the routine actually invoked at run time must be
          one of [targets]. *)
  | Helper of string
      (** Call to a generated (auto-walked) procedure: no probe event; the
          walker descends on its own. *)
  | Return  (** Early return. *)

type t = stmt list

(** Convenience constructors (probabilities default to [nan], meaning the
    site is engine-driven). *)

val straight : int -> stmt

val if_ : ?p:float -> string -> stmt list -> stmt
(** [if_ site body]: conditional with an empty else. *)

val if_else : ?p:float -> string -> stmt list -> stmt list -> stmt

val while_ : ?p:float -> string -> stmt list -> stmt

val do_while : ?p:float -> string -> stmt list -> stmt

val call : string -> stmt

val icall : string -> string list -> stmt

val helper : string -> stmt

val return : stmt
