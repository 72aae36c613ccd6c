(** The Query Execution kernel: Volcano-style (open/next) pipelined
    operators, each an instrumented routine, dispatched through the
    instrumented [ExecProcNode] indirect call, exactly the pipelined regime
    the paper attributes PostgreSQL's long call chains to.

    [run] executes a plan to completion and returns the result rows. *)

val run : Database.t -> Plan.t -> int array list
(** Instrumented [ExecutorRun]: build the executor node tree
    ([ExecutorStart]/[ExecInitNode]), then pull tuples through
    [ExecProcNode] to completion. *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
(** Every executor routine, [ExecMergeJoin] and [ExecMaterial]
    included: no plan runs those two, but the synthetic kernel is built
    from this list in order, so dropping either would renumber every
    later block and change every trace, layout and result. *)
