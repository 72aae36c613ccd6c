(** Metric handles: counters and gauges.

    A handle is a free-standing mutable cell with no name: updating one
    is a single field write, with no allocation and no table lookup. A
    handle enters a {!Registry} only by name ({!Registry.counter},
    {!Registry.gauge}), which interns it there;
    [make] gives a handle that no registry exports (a module that counts
    whether or not a run collects metrics). Statistics are counted where
    a result is built, not inside the simulated structures: the caches,
    the trace walker, the recorder and the predictors hold state only. *)

module Counter : sig
  type t

  val make : unit -> t
  (** A fresh counter starting at 0. *)

  val incr : t -> unit

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
