type clock = unit -> float

type node = {
  node_name : string;
  mutable calls : int;
  mutable seconds : float;
  mutable children_rev : node list;
}

(* A name has one kind; a counter's value is the sum of its [add]s, a
   gauge's the last [set]. *)
type entry =
  | Counter of int
  | Gauge of float

type t = {
  clock : clock;
  index : (string, entry) Hashtbl.t;
  root : node;
  mutable stack : node list;  (* innermost open span first; [] = root *)
  mutable events_rev : (string * (string * Json.t) list) list;
}

let create ?(clock = Unix.gettimeofday) () =
  {
    clock;
    index = Hashtbl.create 64;
    root = { node_name = ""; calls = 0; seconds = 0.0; children_rev = [] };
    stack = [];
    events_rev = [];
  }

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

(* ---------- spans ---------- *)

module Span = struct
  type info = { path : string; depth : int; calls : int; seconds : float }
end

let span t name f =
  let parent = match t.stack with [] -> t.root | n :: _ -> n in
  let node =
    match
      List.find_opt (fun n -> String.equal n.node_name name) parent.children_rev
    with
    | Some n -> n
    | None ->
      let n = { node_name = name; calls = 0; seconds = 0.0; children_rev = [] } in
      parent.children_rev <- n :: parent.children_rev;
      n
  in
  node.calls <- node.calls + 1;
  t.stack <- node :: t.stack;
  let t0 = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      node.seconds <- node.seconds +. (t.clock () -. t0);
      match t.stack with
      | top :: rest when top == node -> t.stack <- rest
      | _ -> () (* unbalanced exit via an outer exception; leave as-is *))
    f

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

let spans t =
  let rec walk prefix depth node acc =
    let path =
      if prefix = "" then node.node_name else prefix ^ "/" ^ node.node_name
    in
    let acc =
      { Span.path; depth; calls = node.calls; seconds = node.seconds } :: acc
    in
    List.fold_left
      (fun acc child -> walk path (depth + 1) child acc)
      acc
      (List.rev node.children_rev)
  in
  List.fold_left
    (fun acc child -> walk "" 0 child acc)
    []
    (List.rev t.root.children_rev)
  |> List.rev

let events t = List.rev t.events_rev
