(** Procedures: a named entry point owning a contiguous set of blocks. *)

type subsystem =
  | Parser
  | Optimizer
  | Executor
  | Access_methods
  | Buffer_manager
  | Storage_manager
  | Utility
  | Other
      (** The DBMS subsystem the procedure belongs to (Figure 1 of the
          paper). Drives the [ops] seed selection (Executor entry points)
          and per-module reporting. *)

type t = {
  pid : int;
  name : string;
  subsystem : subsystem;
  entry : int;  (** Entry block id. *)
  blocks : int array;
      (** All block ids of this procedure, in original textual order;
          [blocks.(0) = entry]. *)
}

val subsystem_name : subsystem -> string
