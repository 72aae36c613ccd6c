(** Basic-block terminators.

    Control flow out of a block is fully described by its terminator. Block
    and procedure identifiers are plain [int]s (indices into the program's
    arrays); [Fall] records its successor explicitly because "textually
    next" stops being meaningful once a layout algorithm reorders blocks. *)

type t =
  | Fall of int
      (** No branch instruction at the end of the block; execution
          continues at the given block, which the original code placed
          immediately after. *)
  | Jump of int  (** Unconditional direct branch to a block. *)
  | Cond of { taken : int; fallthru : int }
      (** Conditional branch: [taken] target and textual fall-through. *)
  | Call of { callee : int; next : int }
      (** Direct subroutine call to procedure [callee]; on return,
          execution resumes at block [next]. *)
  | Icall of { callees : int array; next : int }
      (** Indirect call through a function pointer; [callees] lists the
          procedures observed as possible targets. *)
  | Ret  (** Subroutine return. *)

type kind = Fall_through | Branch | Subroutine_call | Subroutine_return
(** The four-way classification of Table 2 of the paper: fall-through
    blocks, branch blocks (conditional or unconditional), subroutine calls
    (including indirect jumps), and returns. *)

val kind : t -> kind

val kind_name : kind -> string

val has_branch_instr : t -> bool
(** Whether the block ends with a branch instruction at all — [false] only
    for [Fall]. Used by the fetch unit's 3-branch limit. *)

val intra_successors : t -> int list
(** Successor {e blocks} within the same procedure ([Call]/[Icall] continue
    at [next] after the callee returns; [Ret] has none). *)
