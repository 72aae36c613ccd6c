(** Code layouts: an assignment of a byte address to every basic block.

    As in the paper's methodology, the code itself is never modified — all
    blocks keep their sizes — only the addresses change ("we generated a
    new address for each basic block, feeding the simulators with this
    faked address instead of the original PC"). *)

type t = {
  name : string;
  addr : int array;  (** Byte address of each block, indexed by block id. *)
}

val of_block_order : Stc_cfg.Program.t -> name:string -> int array -> t
(** Pack the given permutation of all block ids contiguously from address
    0. Raises [Invalid_argument] if the array is not a permutation of all
    block ids. *)

val of_placements : Stc_cfg.Program.t -> name:string -> (int * int) list -> t
(** [of_placements prog ~name placements] with explicit [(block, addr)]
    pairs for every block. Raises [Invalid_argument] on missing blocks,
    misaligned addresses or overlaps. *)

val address : t -> int -> int
