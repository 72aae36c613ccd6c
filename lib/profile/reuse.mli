(** Temporal reuse distances (Section 4.1): for a chosen set of popular
    blocks, the number of instructions executed between two consecutive
    invocations of the same block. *)

type t

val popular_set : Profile.t -> share:float -> bool array
(** Membership array of the most popular blocks that together capture
    [share] of the dynamic references (the paper uses 0.75). *)

val create : Stc_cfg.Program.t -> member:bool array -> t

val sink : t -> int -> unit
(** Feed the trace (a second replay, after the profile determined the
    popular set). *)

val mass_below : t -> int -> float
(** [mass_below t d]: probability that a tracked block is re-executed in
    fewer than [d] instructions (the paper reports d = 250 → 33 % and
    d = 100 → 19 %). *)

val samples : t -> int
(** Number of re-invocation intervals recorded. *)
