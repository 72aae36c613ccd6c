(* A name has one kind; a counter's value is the sum of its [add]s, a
   gauge's the last [set]. *)
type entry =
  | Counter of int
  | Gauge of float

type t = {
  index : (string, entry) Hashtbl.t;
  mutable events_rev : (string * (string * Json.t) list) list;
}

let create () = { index = Hashtbl.create 64; events_rev = [] }

(* ---------- metrics ---------- *)

let add t name n =
  match Hashtbl.find_opt t.index name with
  | Some (Counter c) -> Hashtbl.replace t.index name (Counter (c + n))
  | None -> Hashtbl.replace t.index name (Counter n)
  | Some (Gauge _) ->
    invalid_arg
      (Printf.sprintf "Stc_obs.Registry: %S is not a counter" name)

let set t name x =
  match Hashtbl.find_opt t.index name with
  | Some (Counter _) ->
    invalid_arg (Printf.sprintf "Stc_obs.Registry: %S is not a gauge" name)
  | Some (Gauge _) | None -> Hashtbl.replace t.index name (Gauge x)

(* ---------- events ---------- *)

let event t ~kind fields = t.events_rev <- (kind, fields) :: t.events_rev

(* ---------- snapshots ---------- *)

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters t =
  Hashtbl.fold
    (fun name e acc ->
      match e with Counter n -> (name, n) :: acc | Gauge _ -> acc)
    t.index []
  |> by_name

let gauges t =
  Hashtbl.fold
    (fun name e acc ->
      match e with Gauge x -> (name, x) :: acc | Counter _ -> acc)
    t.index []
  |> by_name

let events t = List.rev t.events_rev
