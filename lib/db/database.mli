(** A loaded database instance: heaps plus either the B-tree-indexed or the
    Hash-indexed variant of Section 3 of the paper (unique indexes on
    primary keys, multi-entry indexes on foreign keys, and — on the B-tree
    variant only — date indexes usable for range scans). *)

type index_kind = Btree_db | Hash_db

type index = Bt of Btree.t | Hx of Hashidx.t

type t

val load :
  ?frames:int -> Stc_dbdata.Datagen.t -> kind:index_kind -> t
(** Build heaps and indexes from generated data (not traced: run it before
    installing a walker). [frames] sizes the buffer pool. *)

val bufmgr : t -> Bufmgr.t

val heap : t -> string -> Heap.t
(** Raises [Not_found]. *)

val index : t -> string -> index
(** By name, e.g. ["lineitem.l_orderkey"]. Raises [Not_found]. *)

val has_index : t -> string -> bool
