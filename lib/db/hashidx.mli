(** Static hash index: a directory of buckets, each a chain of entry pages
    — the Hash-indexed variant of the database. Supports equality scans
    only (plans fall back to sequential scans for range predicates on the
    hash database, as a real optimizer would). *)

type t

val build :
  Storage.t ->
  Bufmgr.t ->
  name:string ->
  entries:(int * (int * int)) array ->
  t

type scan

val begin_eq : t -> int -> scan
(** Instrumented [hash_search]: hash the key and position on the bucket's
    first page. *)

val getnext : scan -> (int * int) option
(** Instrumented [hashgettuple]: next entry with the key, walking the
    bucket's overflow chain. *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
