(** Basic blocks. *)

type t = {
  id : int;  (** Index into the program's block array. *)
  proc : int;  (** Owning procedure id. *)
  size : int;
      (** Number of instructions, including the terminating branch
          instruction if there is one. Always at least 1. *)
  term : Terminator.t;
}

val instr_bytes : int
(** Bytes per instruction (4, a RISC ISA as on the paper's Alpha). *)

val byte_size : t -> int
(** [size * instr_bytes]. *)

val kind : t -> Terminator.kind
