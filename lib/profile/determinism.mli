(** Block-type mix and transition determinism — Table 2 of the paper.

    A block "behaves in a fixed way" when one successor receives at least
    90 % of its dynamic out-transitions (the paper's notion of
    "always taken or always not taken" for branches; fall-through blocks,
    calls with a single target and returns are fixed by mechanism — a
    return-address stack makes return targets predictable). *)

type row = {
  kind : Stc_cfg.Terminator.kind;
  static_pct : float;  (** Share among {e executed} static blocks. *)
  dynamic_pct : float;  (** Share of dynamic block executions. *)
  predictable_pct : float;
      (** Share of this kind's dynamic executions coming from blocks that
          behave in a fixed way. *)
}

type t = {
  rows : row list;  (** One row per kind, in Table 2 order. *)
  overall_predictable_pct : float;
      (** Share of all dynamic transitions that are predictable (the
          paper's "overall, 80 % of the basic block transitions"). *)
}

val compute : Profile.t -> t
