(** Static-vs-executed footprint — Table 1 of the paper. *)

type t = {
  procs_total : int;
  procs_executed : int;
  blocks_total : int;
  blocks_executed : int;
  instrs_total : int;
  instrs_executed : int;
      (** Static instructions belonging to executed blocks ("referenced"
          code, not dynamic instruction count). *)
}

val compute : Profile.t -> t

val pct : int -> int -> float
(** [pct part whole] as a percentage. *)
