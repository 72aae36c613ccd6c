(** The storage manager: files of pages, and the [mdread] routine the
    buffer manager calls on a miss.

    Heap files carry real {!Page.t} pages. Index files are {e virtual}:
    B-tree and hash nodes live in their own OCaml structures, but each node
    is assigned a (file, page) coordinate so that index accesses produce
    the same buffer-manager and storage traffic a page-based DBMS would. *)

type t

type file

val create : unit -> t

val new_file : t -> name:string -> width:int -> file
(** A heap file for rows of [width] columns. *)

val new_virtual_file : t -> name:string -> file
(** An index file: pages are allocated with [alloc_virtual_page]. *)

val file_id : file -> int

val n_pages : file -> int

val append_row : file -> int array -> int * int
(** Append to the last page (allocating pages as needed); returns the
    (page, slot) tuple id. *)

val page : file -> int -> Page.t
(** The real page of a heap file. Raises [Invalid_argument] for virtual
    files or out-of-range numbers. *)

val alloc_virtual_page : file -> int
(** Reserve the next page number of a virtual file. *)

val mdread : file -> int -> unit
(** Instrumented: the disk-read path, called by the buffer manager on a
    miss. Validates the page number. *)

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
