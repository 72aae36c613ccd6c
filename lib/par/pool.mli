(** A domain pool with chunked, self-scheduling maps — the substrate for
    the embarrassingly parallel simulation grids (Tables 3/4, the
    ablation sweep, and any future parameter sweep).

    Design points:

    - {b Spawn and join.} A pool of [n] domains gives each {!map} a
      parallelism of [n]: the map spawns [n - 1] domains, the calling
      domain works beside them, and the map returns after joining them.
      [~domains:1] spawns nothing and runs every task on the caller, in
      input order — the serial path.
    - {b Chunked self-scheduling.} A map shares one atomic cursor; each
      domain claims [chunk] consecutive indices at a time, so uneven
      task costs balance without a scheduler.
    - {b Deterministic results.} {!map} writes the result of input [i]
      into slot [i]: the output array is ordered by input index, never
      by completion order.
    - {b Exception propagation.} A raising task cancels the chunks not
      yet claimed (claimed ones finish), and once every domain is joined
      the exception of the lowest-indexed failing chunk is re-raised in
      the caller with its backtrace. If spawning a domain fails, the
      domains already spawned are cancelled and joined before the
      spawn's exception is re-raised.

    A pool is driven from one domain at a time (maps do not nest); a
    task must not itself map on the same pool. *)

type t

(** Cumulative scheduling account, kept whether or not tracing is on
    (two clock reads per chunk — noise next to any simulation cell).
    The per-chunk timeline is the tracer's ([pool.chunk] slices). *)
type stats = {
  s_wall : float;
      (** total seconds inside {!map} calls, spawning and joining the
          domains included *)
  s_busy : float array;
      (** per domain slot — 0 is the calling domain, [1..n-1] the
          domains a map spawns — seconds spent running chunks *)
}

val stats : t -> stats
(** Snapshot of the account. Call between maps (not from inside a task):
    the join at the end of each map publishes every domain's writes. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] computes [Array.map f xs] using every domain of the
    pool. Results land by input index. [~chunk] is the number of
    consecutive indices a domain claims at a time (default: a heuristic
    giving each domain several chunks; pass [~chunk:1] when tasks are
    few and individually heavy, as simulation cells are). *)

val with_pool : ?domains:int -> ?trace:Stc_obs.Trace.t -> (t -> 'a) -> 'a
(** [with_pool ~domains:n f] runs [f] with a fresh pool of [n] domains
    ([n] is clamped to at least 1). Default:
    [Domain.recommended_domain_count () - 1], leaving one core for the
    rest of the system. With [~trace], every claimed chunk emits a
    [pool.chunk] slice on the domain that ran it and a [pool.queue]
    counter sample of the items still unclaimed — the per-domain
    utilization timeline [tools/trace_report] digests. *)
