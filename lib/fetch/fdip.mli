(** Fetch-directed instruction prefetching (FDIP, Asheim et al.): a
    decoupled frontend runs ahead of the fetch engine filling a bounded
    fetch target queue (FTQ); a prefetch engine walks the FTQ issuing
    line prefetches into L1i under an in-flight (MSHR) bound with a
    configurable prefetch-to-use latency. Under the paper's
    perfect-prediction fetch model, the run-ahead path is the replayed
    trace itself.

    Each simulated fetch cycle drives {!begin_cycle}, then the cycle's
    {!demand} probes, then {!advance} — in that order, identically in
    the engine bank and the reference oracle, so results are
    byte-identical across banks, segment sizes and [--jobs]. FDIP never
    alters SEQ.3 cycle boundaries: it only changes i-cache contents and
    penalty charges. *)

type config = private {
  ftq_depth : int;  (** fetch targets buffered ahead of fetch *)
  mshrs : int;  (** max prefetches in flight *)
  degree : int;  (** max prefetches issued per cycle *)
  latency : int;  (** cycles from issue to fill *)
}

val config :
  ?ftq_depth:int -> ?mshrs:int -> ?degree:int -> ?latency:int -> unit -> config
(** Validated constructor. Defaults: [ftq_depth = 8], [mshrs = 8],
    [degree = 2], [latency = 3]. *)

val default : config

type t

val create : config -> Stc_cachesim.Icache.t -> t
(** A fresh frontend prefetching into the given L1i.

    {b Ownership.} For the whole replay the frontend owns the cache:
    nothing else installs into or probes it with a state change. The
    frontend's own installs are then the only events that can evict a
    line, and it counts them in a {e presence epoch}: a
    demand miss, a demand victim hit (the swap reinstalls the line), a
    landing in {!begin_cycle} and a demand intercept of an in-flight
    line each bump it, whether or not the install evicted a valid line.
    Between bumps a line that is resident or in flight stays so, which
    is what lets {!advance} skip targets it has already seen. *)

val begin_cycle : t -> now:int -> unit
(** Land every in-flight prefetch whose ready cycle is [<= now] in L1i
    (in issue order). Call first in each fetch cycle, with [now] = the
    cycle being fetched (the post-increment cycle count). *)

val demand : t -> now:int -> miss_penalty:int -> int -> int
(** [demand t ~now ~miss_penalty addr] is the demand probe of one
    line-aligned address, returning this line's cycle charge: 0 on a
    hit or victim hit, [miss_penalty] on a miss, and
    [min remaining_latency miss_penalty] when the line is still in
    flight (a {e late} prefetch: the fill lands immediately and the
    demand then hits, but it counts as a miss and not as useful). The
    probe is one {!Stc_cachesim.Icache.access}; a [Prefetch_hit] counts
    as {!useful}. The frontend counts its demand misses (late ones
    included) and victim hits itself ({!demand_misses},
    {!demand_victim_hits}), since the cache counts nothing; the caller
    adds them to its own miss and victim-hit totals. SEQ.3 charges
    the maximum of its two line charges per cycle, reproducing the
    historical one-penalty-if-either-line-misses rule when no
    prefetches are live. *)

val advance :
  t -> now:int -> int array -> len:int -> idx:int -> gidx:int -> unit
(** [advance t ~now words ~len ~idx ~gidx] walks the FTQ: the fetch
    targets are the {!Packed} words [words.(idx)] to
    [words.(min (idx + ftq_depth) len - 1)], where [idx < len <=
    Array.length words] and the words below [len] are the stream's.
    The first target is the cycle-start block, whose index in the whole
    trace is [gidx]. For each target's
    SEQ.3 line pair, in order, issue a prefetch unless the line is
    resident ({!Stc_cachesim.Icache.mem}) or already in flight,
    stopping at [degree] issues per cycle and [mshrs] in flight. Call
    last in each fetch cycle, with the same [now] as {!begin_cycle}.

    The result is that of walking every target every cycle, but the
    walk resumes where the last one stopped: targets below that point
    had both lines present, and while the presence epoch holds (see
    {!create}) they still do, so only blocks that just entered the
    queue are examined. This needs [gidx] never to decrease from one
    call to the next on the same frontend, and [words.(idx + k)] to be
    the same trace block on every call that covers global index
    [gidx + k] — the window may slide or compact between calls. *)

val issued : t -> int

val completed : t -> int
(** Fills that landed (on time or late); issues still in flight at end
    of run are issued-but-never-completed. *)

val late : t -> int
(** Demands that caught their line still in flight. *)

val useful : t -> int
(** Demand hits on a prefetched line no demand had touched yet. *)

val demand_misses : t -> int
(** Demand probes that missed, late prefetches included. *)

val demand_victim_hits : t -> int
(** Demand probes served by the victim buffer. *)

val in_flight : t -> int
