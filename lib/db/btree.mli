(** B+tree index over an integer key column, bulk-loaded at database build
    time. Nodes are assigned virtual page numbers so that descents and
    leaf-chain walks produce buffer-manager traffic; search, binary search
    within a node, and the scan advance are the instrumented access-method
    routines. *)

type t

val build :
  Storage.t ->
  Bufmgr.t ->
  name:string ->
  entries:(int * (int * int)) array ->
  t
(** [entries] are (key, tid) pairs, not necessarily sorted; duplicates are
    allowed (multi-entry indexes on foreign keys). *)

type scan

val begin_eq : t -> int -> scan
(** Instrumented: descend and position on the first entry with the key. *)

val begin_range : t -> lo:int option -> hi:int option -> scan
(** Instrumented: position on the first entry ≥ [lo] (or the leftmost). *)

val getnext : scan -> (int * int) option
(** Instrumented [btgettuple]: next matching tid, advancing through the
    leaf chain; [None] once past the bound. *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
