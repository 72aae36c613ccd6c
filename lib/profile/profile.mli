(** Dynamic execution profiles: per-block execution counts and weighted
    control-flow edges, accumulated from a basic-block trace.

    This is the weighted directed control-flow graph of Section 5 of the
    paper — the single input of every layout algorithm. *)

type t

val create : Stc_cfg.Program.t -> t

val sink : t -> int -> unit
(** Feed the next executed block (install as walker sink, or replay a
    {!Stc_trace.Recorder} through it). Consecutive blocks are counted as an
    edge; the very first block only counts as a node visit. *)

val note_boundary : t -> unit
(** Forget the previous block, so independent trace sections (different
    queries) do not contribute a spurious edge where they abut. *)

val program : t -> Stc_cfg.Program.t

val block_count : t -> int -> int

val counts : t -> int array
(** The per-block execution counts (the live array — do not mutate). *)

val total_blocks : t -> int
(** Total dynamic block executions. *)

val total_instrs : t -> int
(** Total dynamic instructions. *)

val edge_count : t -> src:int -> dst:int -> int

val iter_edges : t -> (src:int -> dst:int -> count:int -> unit) -> unit

val successors : t -> int -> (int * int) list
(** [(dst, count)] pairs observed out of a block, most frequent first;
    ties broken by block id for determinism. *)

val proc_entry_count : t -> int -> int
(** Dynamic invocations of a procedure (= executions of its entry block). *)

val call_edges : t -> (int * int * int) list
(** [(caller_pid, callee_pid, count)] for all dynamic call transitions
    (edges from a call-terminated block to a procedure entry), most
    frequent first. *)

(** {2 Direct construction}

    For tests and worked examples (e.g. the Figure 3 graph), a profile can
    be populated with explicit weights instead of consuming a trace. *)

val inject_block : t -> int -> count:int -> unit
(** Add [count] executions to a block. *)

val inject_edge : t -> src:int -> dst:int -> count:int -> unit
(** Add [count] traversals of an edge (does not touch block counts). *)
