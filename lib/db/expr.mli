(** Scalar expressions over executor tuples, with an instrumented recursive
    evaluator ([ExecEvalExpr]). Booleans are 0/1 integers; [And]/[Or]
    short-circuit, giving the evaluator real data-dependent branches. *)

type t =
  | Col of int  (** Attribute of the current (possibly joined) tuple. *)
  | Const of int
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** Integer division; division by zero yields 0. *)
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | In_list of t * int list

val eval : t -> int array -> int
(** Instrumented evaluation against a tuple. *)

val qual : t list -> int array -> bool
(** Instrumented [ExecQual]: conjunction with early exit. *)

val project : t list -> int array -> int array
(** Instrumented [ExecProject]. *)

val col_between : int -> int -> int -> t
(** [col_between c lo hi] = [lo <= col c <= hi], inclusive. *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
