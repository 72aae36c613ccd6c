(** The layout-algorithm registry: every block-placement algorithm as a
    named [Profile.t -> params -> Mapping.plan] entry.

    The simulation grid ({!Stc_core.Experiments}), the correctness bundle
    ([Stc_check.run_all]) and the CLIs enumerate and select algorithms
    through this registry instead of hard-coded per-module calls, so a
    new algorithm added to the built-in list at the end of [algo.ml]
    appears in the comparison tables, the validators and [--layouts]
    without touching any of them.

    Built-ins, in registration (= presentation) order: [orig], [P&H],
    [Torr], [auto], [ops], [codestitcher], [exttsp]. The first two are
    fixed baselines ([uses_cfa = false]): their plans ignore the cache
    geometry and map with a zero-byte CFA, which reproduces their
    classic [of_block_order] addresses exactly. *)

type params = Stc.params = {
  seq : Seqbuild.params;  (** Exec/Branch thresholds for sequence builders. *)
  cache_bytes : int;  (** Target i-cache size, for the mapping. *)
  cfa_bytes : int;  (** Conflict-Free Area budget. *)
}
(** One uniform parameter record for every algorithm; entries that need
    less (P&H needs nothing, Codestitcher only the CFA budget) ignore
    the rest. *)

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

type t = {
  name : string;  (** Display name; the [Layout.t] name and the row label. *)
  slug : string;
      (** Stable kebab-case identifier for store keys and span names. *)
  aliases : string list;  (** Extra names {!find} accepts. *)
  describe : string;  (** One paragraph for [stc_repro layouts]. *)
  uses_cfa : bool;
      (** Whether the plan populates the Conflict-Free Area. [false]
          algorithms are mapped with [cfa_bytes = 0] regardless of the
          params and appear in the grid as fixed baselines. *)
  plan : Stc_profile.Profile.t -> params -> Mapping.plan;
}

val all : unit -> t list
(** Every registered algorithm, in registration order. *)

val names : unit -> string list

val find : string -> (t, string) result
(** Case-insensitive lookup over names, slugs and aliases. The error
    message lists the valid names. *)

val effective_cfa_bytes : t -> params -> int
(** [params.cfa_bytes], or 0 when the algorithm does not use the CFA. *)

val plan : t -> Stc_profile.Profile.t -> params -> Mapping.plan

val layout : t -> Stc_profile.Profile.t -> params -> Layout.t
(** {!plan} → {!Mapping.map_plan} with {!effective_cfa_bytes} and the
    algorithm's display name. *)
