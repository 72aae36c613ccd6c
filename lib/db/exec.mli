(** The Query Execution kernel: Volcano-style (open/next) pipelined
    operators, each an instrumented routine, dispatched through the
    instrumented [ExecProcNode] indirect call, exactly the pipelined regime
    the paper attributes PostgreSQL's long call chains to.

    [run] executes a plan to completion and returns the result rows. *)

val run : Database.t -> Plan.t -> int array list
(** Instrumented [ExecutorRun]: build the executor node tree
    ([ExecutorStart]/[ExecInitNode]), then pull tuples through
    [ExecProcNode] to completion. *)

val op_names : string list
(** All executor operator routine names (the [ExecProcNode] dispatch
    targets). *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
