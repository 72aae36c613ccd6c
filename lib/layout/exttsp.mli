(** ExtTSP-style block reordering (Newell & Pupyrev, IEEE TC 2020 — the
    score behind LLVM BOLT's basic-block layout).

    An edge scores its full weight when the destination falls through
    from the source, a decaying tenth of it for short forward
    (≤ 1024 B) or backward (≤ 640 B) jumps, and nothing otherwise.
    Executed blocks start as singleton chains and merge greedily until
    no merge improves the score. The gain of a concatenation is exactly
    the score of the cross edges, since intra-chain distances are
    invariant. The hottest finished chains are pinned into the
    Conflict-Free Area.

    {b Selection rule.} Each step merges, among all connected chain
    pairs and both of their orientations, the one with
    + the largest positive gain;
    + on equal gain, the pair whose first cross edge comes earliest in
      ascending (src, dst) order;
    + within a pair, the orientation whose first chain has the smaller
      root (a chain's root is its first block).

    A gain is the left fold of {!edge_score} over the pair's cross edges
    in ascending (src, dst) order, so the float comparisons are
    reproducible.

    {b Cost.} Gains are cached per chain pair (both orientations, in a
    priority queue with lazy invalidation), and a merge rescores only
    the merged chain's pairs. Appending a chain costs O(its blocks). *)

val edge_score : src_end:int -> dst:int -> int -> float
(** Score of one edge of the given weight, with the source's end byte
    and the destination's start byte (exposed for tests). *)

val chains : Stc_profile.Profile.t -> int list list
(** The finished chains, hottest first (exposed for tests). Memoized for
    the profile last seen; call only from serial code. *)

val plan : Stc_profile.Profile.t -> cfa_bytes:int -> Mapping.plan
(** {!chains} → {!Mapping.plan_of_chains}. *)
