module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }

  let incr c = c.value <- c.value + 1

  let add c n = c.value <- c.value + n

  let value c = c.value
end

module Gauge = struct
  type t = { mutable value : float }

  let make () = { value = 0.0 }

  let set g v = g.value <- v

  let value g = g.value
end

module Histogram = struct
  type t = Stc_util.Histo.t

  let make ?max_value () = Stc_util.Histo.create ?max_value ()

  let add = Stc_util.Histo.add

  let total = Stc_util.Histo.total

  let mass_below = Stc_util.Histo.mass_below

  let buckets = Stc_util.Histo.buckets
end
