(** Small statistics helpers: the profiler's popularity curve and the
    metrics export's histogram quantiles. *)

val cumulative_share : int array -> float array
(** [cumulative_share counts] sorts [counts] descending and returns the
    running share of the total: element [i] is the fraction of the sum
    captured by the [i+1] largest counts. Used for the Figure 2 curve. *)

val weighted_percentile : (int * int) array -> float -> float
(** [weighted_percentile pairs p] over [(value, weight)] pairs sorted
    ascending by value: the smallest value whose cumulative weight
    reaches share [p] of the total, as a float. No interpolation — the
    answer is always one of the given values, so it is exact under
    histogram-bucket merging. Raises [Invalid_argument] on an empty
    array or nonpositive total weight. *)
