(** Fixed-size slotted pages holding rows of one table.

    A page models an 8 KB disk page: with 8-byte attributes, a page of a
    [width]-column table holds [1024 / width] tuples. *)

type t

val create : width:int -> t

val width : t -> int

val n_items : t -> int

val full : t -> bool

val append : t -> int array -> unit
(** Raises [Invalid_argument] if full or the row width mismatches. *)

val get : t -> slot:int -> col:int -> int
