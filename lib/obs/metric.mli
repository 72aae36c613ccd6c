(** Metric handles: counters and gauges.

    A handle is a free-standing mutable cell with no name: updating one
    is a single field write, with no allocation and no table lookup. A
    handle enters a {!Registry} only by name ({!Registry.counter},
    {!Registry.gauge}), which interns it there. Statistics are counted
    where a result is built, not inside the simulated structures: the
    caches, the trace walker, the recorder, the predictors, the fetch
    bank and the artifact store hold state only, and [lib/core]
    publishes what they report. *)

module Counter : sig
  type t

  val make : unit -> t
  (** A fresh counter starting at 0. *)

  val add : t -> int -> unit

  val value : t -> int
end

module Gauge : sig
  type t

  val make : unit -> t
  (** A fresh gauge starting at 0. *)

  val set : t -> float -> unit

  val value : t -> float
end
