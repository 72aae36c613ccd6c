(** Heap files: table storage with sequential scans and tuple fetch by
    tuple id — the access methods under Sequential Scan and Index Scan. *)

type t

val load : Storage.t -> Bufmgr.t -> name:string -> rows:int array array -> width:int -> t
(** Create a heap file and bulk-load the rows (load time is not traced). *)

val n_rows : t -> int

val file : t -> Storage.file

type scan

val begin_scan : t -> scan
(** Instrumented [heap_beginscan]. *)

val getnext : scan -> int array option
(** Instrumented [heap_getnext]: advance the scan, going through the
    buffer manager page by page. *)

val rescan : scan -> unit

val fetch : t -> int * int -> int array
(** Instrumented [heap_fetch]: fetch one tuple by (page, slot). *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
