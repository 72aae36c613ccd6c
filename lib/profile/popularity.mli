(** Concentration of dynamic references in few static blocks — Figure 2. *)

type t

val compute : Profile.t -> t

val blocks_for_share : t -> float -> int
(** Least number of most-popular blocks capturing the given share. *)

val curve : t -> max_blocks:int -> step:int -> (int * float) list
(** Sampled (n, cumulative share) points for plotting Figure 2. *)

val executed_blocks : t -> int
(** Number of static blocks with a non-zero count. *)
