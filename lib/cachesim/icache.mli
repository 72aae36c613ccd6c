(** Instruction-cache simulator: direct-mapped or set-associative with a
    pluggable replacement policy (LRU, or the RRIP family), optionally
    backed by a small fully-associative victim cache (Jouppi), as in the
    hardware alternatives of Table 3.

    Addresses are byte addresses. A cache holds state only: tags,
    replacement state, prefetch marks and the victim buffer. It counts
    nothing but {!evictions}, which a caller cannot see happen inside an
    install; every access, miss and victim-hit statistic is counted by
    whoever drives the cache ({!Stc_fetch.Engine.Bank} builds every
    result field from its own counters). Pass a fresh cache per
    simulation: its contents carry over from one use to the next. *)

type t

type policy =
  | Lru  (** recency stack per set — the paper's machine, the default *)
  | Srrip
      (** static re-reference interval prediction: 2-bit RRPV per way,
          long-interval (2) insertion, hit promotes to 0, victim is a
          way at RRPV 3 after uniform aging (ties to the
          oldest-installed way) *)
  | Trrip of int array
      (** SRRIP with a static per-line temperature hint, indexed by line
          number ([addr / line_bytes]): 0 = hot (insert at RRPV 0),
          1 = warm (insert at 2), anything else — or any line past the
          end of the table — cold (insert at 3). The table is derived
          from the same layout hotness STC computes
          (see {!Temperature}). *)

val create :
  ?assoc:int ->
  ?line_bytes:int ->
  ?victim_lines:int ->
  ?policy:policy ->
  size_bytes:int ->
  unit ->
  t
(** Defaults: direct-mapped ([assoc = 1]), 32-byte lines (8 instructions,
    the SEQ.3 half-width), no victim cache ([victim_lines = 0]), [Lru]
    replacement. [size_bytes] must be a power of two and a multiple of
    [assoc * line_bytes]. Raises [Invalid_argument] naming the argument
    otherwise, or when [assoc < 1], [victim_lines < 0], [line_bytes] is
    not a power of two or a [Trrip] temperature is negative. *)

type outcome =
  | Hit
  | Prefetch_hit
      (** A hit that consumed a {!fill_prefetch} mark: the line was
          prefetched and no demand access had touched it yet (the
          prefetch was useful). *)
  | Victim_hit
      (** Found in the victim buffer and swapped back into the main
          cache. *)
  | Miss

val access : t -> int -> outcome
(** [access t addr] is the demand access of the line containing [addr]:
    a hit refreshes the line's replacement state and consumes its
    prefetch mark; a miss installs it, and the evicted line passes
    through the victim buffer. The one demand entry point besides
    {!probe_direct}. *)

val mem : t -> int -> bool
(** [mem t addr] is [true] iff the line containing [addr] is resident in
    the main tag array. Pure — no state or replacement update; the
    victim buffer is not consulted. Used by the prefetcher to filter
    already-resident candidates. *)

val fill_prefetch : t -> int -> unit
(** Install the line containing [addr] as a prefetch: a no-op if already
    resident, else a normal replacement-policy install marked
    prefetched, with a distant RRIP insertion (a wrong prefetch should
    be the first line out) or MRU under LRU. The evicted line passes
    through the victim buffer exactly as on the demand path; under RRIP
    policies an eviction counts in {!evictions}. *)

val plain_direct : t -> bool
(** [true] iff the cache is direct-mapped ([assoc = 1]) with no victim
    buffer and [Lru] replacement — the precondition of {!probe_direct}.
    (Non-LRU policies are excluded because they count {!evictions},
    which the fast probe does not.) *)

val probe_direct : t -> int -> bool
(** Specialized {!access} for {!plain_direct} caches: [true] on a hit;
    on a miss the line is installed over the set's single way. With one
    way per set and no victim buffer there is no replacement choice, so
    skipping the LRU clock and stamps is observationally identical to
    {!access} (same outcome sequence, same final tags) at a fraction of
    the cost — this is what the fused replay bank drives for every plain
    direct-mapped configuration. Calling it on a set-associative,
    victim-backed or non-LRU cache would silently corrupt the
    replacement state; don't. *)

val retouch_safe : t -> bool
(** [true] iff the cache is [Lru] with at least two sets. Then, after
    demand accesses to two consecutive lines, a demand re-access of
    either, before any other access or {!fill_prefetch}, is a hit that
    changes no later outcome: a driver may skip it and count it as a
    hit ({!Stc_fetch.Engine.Bank} does, in slots without an FDIP
    frontend). *)

val line_bytes : t -> int

val evictions : t -> int
(** Valid lines evicted from the main tag array (demand installs and
    prefetch fills). Tracked for the RRIP policies only — always 0
    under [Lru], where the historical paths (including
    {!probe_direct}) do not count it. *)
