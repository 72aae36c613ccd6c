(** Sequence mapping into the address space with a Conflict-Free Area —
    Section 5.3 / Figure 4 of the paper.

    The address space is viewed as a logical array of caches, each
    [cache_bytes] long. The most popular sequences ([cfa_seqs]) occupy the
    start of the first logical cache; the region they use — the first
    [cfa_bytes] of {e every} logical cache — is then kept free of all other
    sequences, so nothing can evict them. The remaining sequences fill the
    rest, skipping the CFA window of each logical cache, and finally the
    cold blocks fill everything left, including the skipped windows (the
    rarely executed code is the only thing allowed to conflict with the
    CFA). *)

type plan = {
  cfa_seqs : int list list;
      (** Whole sequences for the Conflict-Free Area, in placement order. *)
  other_seqs : int list list;
      (** Remaining sequences, mapped around the CFA windows. *)
  cold : int list;  (** Everything else; fills the holes last. *)
}
(** The partition a mapping consumes — exposed (and returned by
    {!Stc.plan} / {!Torrellas.plan}) so that checkers like
    [Stc_check.Layouts] can verify CFA containment against the exact
    block sets the algorithm intended, not a reconstruction. *)

val map_plan :
  Stc_cfg.Program.t ->
  name:string ->
  cache_bytes:int ->
  cfa_bytes:int ->
  plan ->
  Layout.t
(** The plan's three parts must partition all blocks. Raises
    [Invalid_argument] if the CFA sequences exceed [cfa_bytes], or on a
    malformed partition (via layout validation). *)

val fit_cfa :
  Stc_cfg.Program.t ->
  cfa_bytes:int ->
  int list list ->
  int list list * int list list
(** [fit_cfa prog ~cfa_bytes seqs] splits the ordered sequences into the
    longest prefix of whole sequences fitting in [cfa_bytes] and the
    rest. A sequence that does not fit is skipped (later, shorter ones may
    still fit), preserving order. *)

val plan_of_chains :
  Stc_profile.Profile.t -> cfa_bytes:int -> int list list -> plan
(** [plan_of_chains profile ~cfa_bytes chains] is the plan of a
    chain-building layout: the ordered hot [chains] split into CFA
    residents and the rest ({!fit_cfa}), and the never-executed blocks in
    original textual order as the cold part. *)
