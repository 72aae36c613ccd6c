(** Validation that a dynamic block trace is a legal walk of the program's
    CFG — the master invariant connecting the walker, the skeletons and the
    compiled blocks. Used by the test suite and available for debugging. *)

val check_all : Stc_cfg.Program.t -> (((int -> unit) -> unit)[@warning "-3"]) -> (unit, string) result
(** [check_all program iter] feeds every block id produced by [iter]
    through a shadow call stack and checks that each transition from the
    previously fed block is legal: an intra-procedure successor, a call
    to the entered procedure's entry block, or a return to the pending
    call continuation. Trace roots (entered with an empty shadow stack)
    may start at any procedure entry, and a trace may end mid-routine.
    The first illegal transition is the [Error]. *)
