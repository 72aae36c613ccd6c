(** Deterministic pseudo-random number generation.

    All stochastic choices in the reproduction flow through this module so
    that a single 64-bit seed pins the synthetic kernel, the database
    contents and therefore every trace and every table, bit for bit.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny
    state and excellent statistical quality for simulation purposes.
    {!named} derives independent child streams, which give every
    procedure, branch site and table column its own stream, so adding a
    consumer never perturbs the values seen by existing ones. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] is a fresh generator seeded with [seed]. *)

val named : t -> string -> t
(** [named t s] derives a child generator from [t]'s {e original seed} and
    the name [s], without advancing [t]. Two distinct names yield
    independent streams; the same name always yields the same stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)
