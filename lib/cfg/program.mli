(** A whole static program: the unit the profiler characterizes and the
    layout algorithms reorder. *)

type t = {
  procs : Proc.t array;  (** Indexed by procedure id. *)
  blocks : Block.t array;  (** Indexed by block id. *)
}

type static_counts = {
  n_procs : int;
  n_blocks : int;
  n_instrs : int;
}

val static_counts : t -> static_counts
(** The "Total" column of Table 1. *)

val proc_of_block : t -> int -> Proc.t

val validate : t -> (unit, string) result
(** Structural well-formedness: ids in range and consistent with array
    positions; every block owned by exactly one procedure; procedure entry
    is its first block; every intra-procedure edge stays inside the
    procedure; [Call]/[Icall] targets are valid procedure ids; every block
    of a procedure is reachable from its entry; block sizes positive. *)
