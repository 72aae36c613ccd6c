(** The layout of Torrellas, Xia & Daigle (HPCA 1995), as characterized in
    the paper: code is reordered as sequences of basic blocks spanning
    functions, but the Conflict-Free Area is filled with the most popular
    {e individual basic blocks} — pulled out of their sequences — rather
    than with whole sequences. With a small CFA this behaves much like the
    STC; with a large CFA the pulled-out blocks break sequentiality
    (execution keeps jumping in and out of the CFA), which is exactly the
    contrast Table 4 of the paper exhibits. *)

val plan :
  Stc_profile.Profile.t ->
  seq_params:Seqbuild.params ->
  cfa_bytes:int ->
  Mapping.plan
(** The partition to map: the pulled-out popular blocks as one CFA
    "sequence", the thinned-out sequences, and the cold remainder
    (independent of [cache_bytes], which only affects the mapping). *)
