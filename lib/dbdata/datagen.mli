(** Deterministic, scaled TPC-D data generation (the dbgen substitute).

    Row counts follow the TPC-D proportions: at scale factor [sf],
    supplier has [10_000 · sf] rows, customer [150_000 · sf],
    part [200_000 · sf], partsupp [800_000 · sf], orders [1_500_000 · sf]
    and lineitem 1–7 lines per order (≈ 4 on average). Region and nation
    are fixed. Value distributions mirror dbgen's in shape: uniform keys,
    uniform dates over 1992–1998, skewed-enough categorical columns. *)

type t = {
  rows : (string * int array array) list;
      (** Table name → rows (each row an [int array] per the schema). *)
}

val check_sf : float -> unit
(** The check {!generate} runs first: raises [Invalid_argument] naming
    [sf] unless it is finite and at least the smallest value that gives
    orders, the largest scaled table, two rows (about 1.33e-6; the
    message names it). Every table keeps at least one row, so below
    that bound every value, zero and negative ones included, would run
    one and the same data set. *)

val generate : ?seed:int64 -> sf:float -> unit -> t

val table : t -> string -> int array array
