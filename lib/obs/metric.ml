module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }

  let add c n = c.value <- c.value + n

  let value c = c.value
end

module Gauge = struct
  type t = { mutable value : float }

  let make () = { value = 0.0 }

  let set g v = g.value <- v

  let value g = g.value
end
