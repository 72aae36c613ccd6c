(** Histograms over non-negative integer values, with geometric
    buckets [[0,1) [1,2) [2,4) ...]. They back the temporal-reuse
    statistics of Section 4.1 ([Stc_profile.Reuse]), where distances
    span seven orders of magnitude and only coarse shape matters. *)

type t

val create : unit -> t
(** An empty histogram of values in [\[0, 2{^40}\]]; larger values are
    clamped into the last bucket. *)

val add : t -> int -> unit
(** [add h v] records one occurrence of value [v]. *)

val total : t -> int
(** Number of recorded values. *)

val mass_below : t -> int -> float
(** [mass_below h v] is the fraction of recorded values that are
    strictly less than [v]. The answer is exact at bucket boundaries and
    linearly interpolated inside a bucket. 0 when the histogram is empty. *)
