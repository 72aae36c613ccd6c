(** Compilation of {!Skeleton} programs to basic blocks plus a small
    bytecode that the {!Walker} interprets.

    Compiling a skeleton allocates the procedure's blocks in textual order
    inside a {!Stc_cfg.Builder} (so the "original" layout is the natural
    compiled order) and produces one [op] array. Walking the ops replays
    exactly the block sequence the routine's control flow dictates:
    [Emit] ops fire unconditionally, [Expect_*] ops pause the walker until
    the instrumented routine reports the outcome (or, for auto-walked
    procedures, are decided by sampling [p_true]). *)

type cond_site = {
  site : string;
  p_true : float;
  mutable then_pc : int;
  mutable else_pc : int;
}

type goto = { mutable target : int }

type op =
  | Emit of int  (** Emit a basic block (it is being executed). *)
  | Expect_cond of cond_site
      (** The preceding emitted block ended with a conditional branch;
          continue at [then_pc] if the condition is true. *)
  | Expect_enter of { site : string; callees : int array }
      (** The preceding block ended with a call; wait for one of [callees]
          to be entered, resume at the next pc after it returns. *)
  | Auto_call of int
      (** Call to a generated procedure: the walker descends immediately. *)
  | Goto of goto
  | Finish  (** The routine's return block has been emitted. *)

type t = { pid : int; ops : op array }

val compile :
  Stc_cfg.Builder.t ->
  pid:int ->
  resolve:(string -> int) ->
  Skeleton.t ->
  t
(** [compile builder ~pid ~resolve skel] allocates blocks for procedure
    [pid], finishes the procedure in [builder], and returns its bytecode.
    [resolve] maps routine names (for [Call]/[Icall]/[Helper]) to procedure
    ids; all callees must already be declared. Raises [Invalid_argument] on
    malformed skeletons (e.g. code after both branches returned). *)
