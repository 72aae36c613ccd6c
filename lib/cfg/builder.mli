(** Imperative program construction with forward references.

    The synthetic-kernel generator and the skeleton DSL both need to create
    procedures that call procedures defined later, and blocks that branch
    forward; the builder assigns ids eagerly and lets terminators be filled
    in afterwards. *)

type t

val create : unit -> t

val declare_proc : t -> name:string -> subsystem:Proc.subsystem -> int
(** Reserve a procedure id; the body is supplied later with
    [finish_proc]. Raises if the name was already declared. *)

val pid_of_name : t -> string -> int
(** Id of a declared procedure. Raises [Not_found] if unknown. *)

val new_block : t -> pid:int -> size:int -> int
(** Allocate a block owned by procedure [pid] with a placeholder [Ret]
    terminator; returns its global block id. *)

val set_term : t -> int -> Terminator.t -> unit
(** Set the terminator of a previously allocated block. *)

val set_size : t -> int -> int -> unit
(** Adjust the instruction count of a previously allocated block. *)

val finish_proc : t -> pid:int -> entry:int -> blocks:int array -> unit
(** Define the body of a declared procedure. [blocks.(0)] must be [entry]
    and all blocks must have been allocated for [pid]. *)

val build : t -> Program.t
(** Assemble and validate the program. Raises [Failure] with the validation
    message if the construction is inconsistent or a declared procedure was
    never finished. *)
