(** The paper's contribution: the Software Trace Cache layout.

    Builds greedy sequences from seeds (Section 5.2), packs the most
    popular whole sequences into the Conflict-Free Area, maps everything
    else around it (Section 5.3). *)

type params = {
  seq : Seqbuild.params;
  cache_bytes : int;
  cfa_bytes : int;
}

val params :
  ?exec_threshold:int ->
  ?branch_threshold:float ->
  cache_bytes:int ->
  cfa_bytes:int ->
  unit ->
  params
(** Thresholds default to {!Seqbuild.default_params}. The Branch
    Threshold is a probability: raises [Invalid_argument] naming
    [branch_threshold] unless it is in [\[0, 1\]]. *)

val auto_seeds : Stc_profile.Profile.t -> int list
(** The "auto" seed selection: entry points of {e all} procedures, in
    decreasing order of invocation count (unexecuted procedures excluded). *)

val ops_seeds : Stc_profile.Profile.t -> int list
(** The "ops" seed selection: entry points of the Executor operations only
    (knowledge-based), every procedure whose subsystem is [Executor], in
    decreasing order of invocation count (unexecuted procedures
    excluded). *)

val plan :
  Stc_profile.Profile.t ->
  params:params ->
  seeds:int list ->
  Mapping.plan
(** The two-pass partition {!layout} maps: first-pass whole sequences
    fitted into the CFA, the second-pass sequences (plus first-pass
    spill), and the cold remainder. Exposed so checkers can verify the
    resulting layout against the exact intended block sets. *)

val layout :
  Stc_profile.Profile.t ->
  name:string ->
  params:params ->
  seeds:int list ->
  Layout.t
(** Full pipeline: {!plan} → {!Mapping.map_plan}; blocks not in any
    sequence are laid out in original textual order after the sequences. *)
