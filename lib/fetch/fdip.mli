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
(** A fresh frontend prefetching into the given L1i. *)

val begin_cycle : t -> now:int -> unit
(** Land every in-flight prefetch whose ready cycle is [<= now] in L1i
    (in issue order). Call first in each fetch cycle, with [now] = the
    cycle being fetched (the post-increment cycle count). *)

val demand : t -> now:int -> miss_penalty:int -> int -> Stc_cachesim.Icache.outcome * int
(** [demand t ~now ~miss_penalty addr] is the demand probe of one
    line-aligned address: the outcome for the caller's statistics and
    this line's cycle charge — 0 on a hit or victim hit,
    [miss_penalty] on a miss, and [min remaining_latency miss_penalty]
    when the line is still in flight (a {e late} prefetch: the fill
    lands immediately, the demand then hits, but it is reported as a
    miss and not counted useful). SEQ.3 charges the maximum of its two
    line charges per cycle, reproducing the historical one-penalty-if-
    either-line-misses rule when no prefetches are live. *)

val advance : t -> now:int -> nth:(int -> int option) -> unit
(** Walk the FTQ: [nth k] is the base address of the [k]-th fetch
    target ahead of the cycle-start position ([None] past the end of
    the stream), for [k < ftq_depth]. For each target's SEQ.3 line pair,
    issue a prefetch unless the line is resident ({!Stc_cachesim.Icache.mem})
    or already in flight, stopping at [degree] issues per cycle and
    [mshrs] in flight. Call last in each fetch cycle, with the same
    [now] as {!begin_cycle} and [nth] anchored at the {e cycle-start}
    block index. *)

val issued : t -> int

val completed : t -> int
(** Fills that landed (on time or late); issues still in flight at end
    of run are issued-but-never-completed. *)

val late : t -> int
(** Demands that caught their line still in flight. *)

val useful : t -> int
(** Demand hits on a prefetched line no demand had touched yet. *)

val in_flight : t -> int

val occupancy_hwm : t -> int
(** High-water mark of observed FTQ occupancy; [<= ftq_depth] always. *)

val inflight_hwm : t -> int
(** High-water mark of in-flight prefetches; [<= mshrs] always. *)
