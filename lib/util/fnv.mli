(** FNV-1a hashing, 64-bit.

    The repo's one fingerprinting primitive: cheap, dependency-free, and
    stable across runs and platforms (unlike [Hashtbl.hash], which is
    documented to vary). Used by {!Stc_trace.Recorder.hash} and by the
    artifact-store keys, which must agree between the process that wrote
    an artifact and the one that reads it.

    A hash is folded left-to-right: start from {!empty} and feed values.
    Integers are absorbed whole (one xor/multiply per [int], matching the
    historical [Recorder.hash] behaviour); strings byte-by-byte (the
    classic FNV-1a definition). *)

type t = int64

val empty : t
(** The FNV-1a 64-bit offset basis, [0xCBF29CE484222325]. *)

val int : t -> int -> t
(** Absorb one integer in a single xor/multiply step. *)

val int64 : t -> int64 -> t

val float : t -> float -> t
(** Absorbs the IEEE-754 bit pattern, so [-0.] and [0.] differ. *)

val string : t -> string -> t
(** Absorb every byte. Note [string h ""] is [h]: when hashing a list of
    strings, absorb each length (or a separator) too, so that the
    concatenation boundary matters. *)

val ints : t -> int array -> t
(** Absorb every element with {!int}. *)

val int_bigarray :
  ?len:int ->
  t ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  t
(** {!ints} over an off-heap int array: equal to [ints] over the same
    values. *)

val to_hex : t -> string
(** 16 lowercase hex digits. *)
