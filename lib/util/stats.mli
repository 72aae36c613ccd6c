(** Small statistics helpers: the profiler's popularity curve. *)

val cumulative_share : int array -> float array
(** [cumulative_share counts] sorts [counts] descending and returns the
    running share of the total: element [i] is the fraction of the sum
    captured by the [i+1] largest counts. Used for the Figure 2 curve. *)
