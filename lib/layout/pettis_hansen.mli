(** Pettis & Hansen (PLDI 1990) profile-guided code positioning:

    - basic-block chaining inside each procedure (heaviest edges first,
      merging a chain tail to a chain head), with never-executed blocks
      ("fluff") split away into a global cold section;
    - procedure ordering over the weighted call graph with the
      "closest-is-best" heuristic, orienting merged chains so the two
      procedures of the heaviest edge end up as close as possible.

    As the paper notes, the algorithm does not use the target cache
    geometry. *)

val plan : Stc_profile.Profile.t -> Mapping.plan
(** The hot chain order as one sequence, the fluff as the cold section,
    no CFA: mapped with [cfa_bytes = 0] ({!Algo}), the hot code comes
    first and the fluff after it. *)

val proc_order : Stc_profile.Profile.t -> int array
(** The procedure order chosen by the call-graph heuristic (exposed for
    tests). *)

val block_order_within : Stc_profile.Profile.t -> pid:int -> int list * int list
(** [(hot, fluff)] intra-procedure block order for one procedure. *)
