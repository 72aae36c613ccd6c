(** The buffer manager: a fixed pool of page frames over (file, page)
    coordinates with LRU replacement.

    Because the underlying pages are memory-resident, the pool is an
    accounting structure: what matters for the reproduction is the {e code
    path} each access takes (hash-table hit; miss with a free frame; miss
    with an eviction — each a different probe path, driven by the actual
    access pattern of the queries) plus the [mdread] calls it induces. *)

type t

val create : ?frames:int -> unit -> t
(** Default 256 frames (2 MB of 8 KB pages). Raises [Invalid_argument]
    naming [frames] unless it is at least 1. *)

val read_buffer : t -> Storage.file -> int -> unit
(** Instrumented [ReadBuffer]: registers an access to the page, faulting
    it in (and evicting) as needed. *)

val release_buffer : t -> Storage.file -> int -> unit
(** Instrumented [ReleaseBuffer] (unpin). *)

val reset : t -> unit
(** Empty the pool and zero the counters — restores a cold, reproducible
    starting state before recording a trace. *)

val hits : t -> int

val misses : t -> int

val skeletons : (string * Stc_cfg.Proc.subsystem * Stc_trace.Skeleton.t) list
