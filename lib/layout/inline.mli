(** Function inlining — the code-expanding technique the paper's Section 8
    singles out as future work ("it is worth studying if the controlled
    use of code expanding techniques like function inlining and code
    replication can increase the potential fetch bandwidth ... while
    keeping the miss rate under control").

    [transform] clones the bodies of small, hot, non-recursive callees
    into their call sites: the call block falls through into a private
    copy of the callee, whose return blocks jump to the continuation — so
    the call/return pair stops breaking the sequential run. Because the
    simulators are trace-driven, the transformation also provides
    [remap_trace], which rewrites a recorded dynamic trace onto the new
    program by replaying it with a shadow call stack (blocks executed
    under an inlined activation map to that site's clones; nested calls
    from the clone are untouched). *)

type config = {
  min_call_count : int;  (** Only call sites at least this hot. *)
  max_callee_blocks : int;  (** Only callees at most this large. *)
  max_clones : int;  (** Global budget on inlined call sites. *)
}

type t

val transform :
  ?config:config -> Stc_profile.Profile.t -> t
(** Decide the sites from the profile (hottest first) and build the
    expanded program. [config] defaults to 1000 calls, 24 blocks and 64
    sites. Recursive callees, indirect calls and callees containing
    further calls/helper calls are skipped (one-level inlining of
    leaf-ish routines, the "controlled use" of the paper). *)

val program : t -> Stc_cfg.Program.t
(** The expanded program (original blocks keep their ids; clones get
    fresh ids). *)

val inlined_sites : t -> int
(** Number of call sites actually inlined. *)

val code_growth_pct : t -> float
(** Static instruction growth over the original program, in percent. *)

val remap_trace : t -> Stc_trace.Recorder.t -> Stc_trace.Recorder.t
(** Rewrite a dynamic trace of the original program into the expanded
    program's block ids. *)
