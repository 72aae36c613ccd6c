(** Codestitcher-style hierarchical inter-procedural collocation (Lavaee,
    Criswell & Ding, CC 2019).

    Executed blocks start as singleton chains and are stitched together
    in granularity levels: the hottest fallthrough transitions merge
    tail-to-head while the chain fits a 64-byte cache line, then chain
    pairs with any profiled affinity merge (heaviest aggregate first)
    while the result fits a 4096-byte page. The profile's edges are
    trace adjacencies — inherently inter-procedural — so callers and
    callees stitch across procedure boundaries exactly as the original
    algorithm lays out whole functions. The hottest finished chains are
    finally pinned into the Conflict-Free Area, the plan's innermost
    locality layer. *)

val plan : Stc_profile.Profile.t -> cfa_bytes:int -> Mapping.plan
(** The finished chains, hottest first, as a plan
    ({!Mapping.plan_of_chains}). The chains are memoized for the profile
    last seen; call only from serial code. *)
