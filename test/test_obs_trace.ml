(* Stc_obs.Trace: the event tracer and its Chrome trace_event file. The
   emitter is exercised against a hand-stepped clock (exact timestamps),
   a QCheck structural round-trip (any op tree writes a well-formed,
   balanced, per-domain-monotone event array), and real Domain.spawn
   parallelism. *)

module Trace = Stc_obs.Trace
module Json = Stc_obs.Json

(* A tracer on a hand-stepped clock: epoch is the clock's value at
   create, so the first [tick] puts "now" at exactly [step] seconds. *)
let stepped () =
  let t = ref 0.0 in
  let tr = Trace.create ~clock:(fun () -> !t) () in
  (tr, fun dt -> t := !t +. dt)

(* The events of the file [Trace.write_file] writes. *)
let read_back tr =
  let path = Filename.temp_file "stc_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write_file tr path;
  let doc = In_channel.with_open_text path In_channel.input_all in
  match Json.of_string doc with
  | Json.List evs -> evs
  | _ -> Alcotest.fail "trace file is not a JSON array"

let field name ev =
  match Json.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "event lacks %S: %s" name (Json.to_string ev)

let str name ev =
  match field name ev with
  | Json.Str s -> s
  | v -> Alcotest.failf "%S not a string: %s" name (Json.to_string v)

let num name ev =
  match Json.to_float (field name ev) with
  | Some f -> f
  | None -> Alcotest.failf "%S not numeric" name

let int name ev =
  match field name ev with
  | Json.Int i -> i
  | v -> Alcotest.failf "%S not an int: %s" name (Json.to_string v)

let non_meta evs = List.filter (fun e -> str "ph" e <> "M") evs

(* ---------- exact serialization on a stepped clock ---------- *)

let test_span_slices () =
  let tr, tick = stepped () in
  Trace.span tr "outer" (fun () ->
      tick 0.001;
      Trace.span tr "inner" (fun () -> tick 0.002);
      tick 0.003);
  Trace.counter tr "depth" 7;
  Alcotest.(check int) "events counted" 5 (Trace.events tr);
  let evs = read_back tr in
  (* one thread_name metadata record for the lone domain *)
  (match List.filter (fun e -> str "ph" e = "M") evs with
  | [ m ] ->
    Alcotest.(check string) "meta name" "thread_name" (str "name" m)
  | ms -> Alcotest.failf "expected 1 metadata event, got %d" (List.length ms));
  let phases =
    List.map (fun e -> (str "ph" e, str "name" e, num "ts" e)) (non_meta evs)
  in
  Alcotest.(check (list (triple string string (float 1e-6))))
    "exact event sequence"
    [
      ("B", "outer", 0.0);
      ("B", "inner", 1000.0);
      ("E", "inner", 3000.0);
      ("E", "outer", 6000.0);
      ("C", "depth", 6000.0);
    ]
    phases;
  (* the counter carries its value in args.value *)
  let c = List.find (fun e -> str "ph" e = "C") evs in
  (match Json.member "args" c with
  | Some args -> Alcotest.(check int) "counter value" 7 (int "value" args)
  | None -> Alcotest.fail "counter event lacks args")

let test_complete_and_end_args () =
  let tr, tick = stepped () in
  let t0 = Trace.now tr in
  tick 0.004;
  Trace.complete ~arg:512 tr "op" ~start:t0;
  Trace.span tr "op" ignore;
  let evs = non_meta (read_back tr) in
  let x = List.find (fun e -> str "ph" e = "X") evs in
  Alcotest.(check (float 1e-6)) "X starts at start" 0.0 (num "ts" x);
  Alcotest.(check (float 1e-6)) "X duration in us" 4000.0 (num "dur" x);
  let bytes e =
    match Json.member "args" e with Some a -> int "bytes" a | None -> -1
  in
  Alcotest.(check int) "X byte arg" 512 (bytes x);
  let e = List.find (fun e -> str "ph" e = "E") evs in
  Alcotest.(check int) "E carries no arg" (-1) (bytes e)

let test_backwards_clock_clamped () =
  let t = ref 10.0 in
  let tr = Trace.create ~clock:(fun () -> !t) () in
  Trace.counter tr "e" 0;
  t := 5.0 (* NTP step backwards *);
  Trace.counter tr "e" 1;
  t := 12.0;
  Trace.counter tr "e" 2;
  let ts = List.map (num "ts") (non_meta (read_back tr)) in
  Alcotest.(check (list (float 1e-6)))
    "timestamps clamped monotone"
    [ 0.0; 0.0; 2e6 ]
    ts

(* ---------- QCheck: structural round-trip of random op trees ---------- *)

type op = Span of int * op list | Count of int * int | Complete of int

let op_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map2 (fun i v -> Count (i, v)) (int_bound 3) (int_bound 1000);
              map (fun i -> Complete i) (int_bound 3);
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 3,
                map2
                  (fun i ops -> Span (i, ops))
                  (int_bound 3)
                  (list_size (int_bound 4) (self (n / 2))) );
            ]))

let rec op_str = function
  | Span (i, ops) ->
    Printf.sprintf "s%d[%s]" i (String.concat ";" (List.map op_str ops))
  | Count (i, v) -> Printf.sprintf "c%d=%d" i v
  | Complete i -> Printf.sprintf "x%d" i

let rec apply tr tick = function
  | Span (i, ops) ->
    Trace.span tr (Printf.sprintf "s%d" i) (fun () ->
        tick 0.001;
        List.iter (apply tr tick) ops)
  | Count (i, v) -> Trace.counter tr (Printf.sprintf "c%d" i) v
  | Complete i ->
    let t0 = Trace.now tr in
    tick 0.001;
    Trace.complete tr (Printf.sprintf "x%d" i) ~start:t0

(* Group an event list by tid, preserving order within each group. *)
let by_tid evs =
  let tbl = Hashtbl.create 4 and tids = ref [] in
  List.iter
    (fun e ->
      let tid = int "tid" e in
      match Hashtbl.find_opt tbl tid with
      | Some l -> l := e :: !l
      | None ->
        Hashtbl.replace tbl tid (ref [ e ]);
        tids := tid :: !tids)
    evs;
  List.rev_map (fun tid -> (tid, List.rev !(Hashtbl.find tbl tid))) !tids

(* The three structural invariants any Stc_obs.Trace export satisfies,
   shared by the QCheck property and the multi-domain test below. *)
let check_wellformed evs =
  List.iter
    (fun e ->
      let ph = str "ph" e in
      if
        not (List.mem ph [ "B"; "E"; "C"; "X" ])
      then QCheck.Test.fail_reportf "unknown ph %S" ph;
      ignore (str "name" e);
      ignore (num "ts" e);
      ignore (int "pid" e);
      ignore (int "tid" e))
    evs;
  List.iter
    (fun (tid, evs) ->
      (* begin/end balance with stack discipline *)
      let stack =
        List.fold_left
          (fun stack e ->
            match str "ph" e with
            | "B" -> str "name" e :: stack
            | "E" -> (
              match stack with
              | top :: rest when top = str "name" e -> rest
              | _ ->
                QCheck.Test.fail_reportf "tid %d: E %S without matching B" tid
                  (str "name" e))
            | _ -> stack)
          [] evs
      in
      if stack <> [] then
        QCheck.Test.fail_reportf "tid %d: %d unclosed B event(s)" tid
          (List.length stack);
      (* timestamps monotone non-decreasing in emission order *)
      ignore
        (List.fold_left
           (fun last e ->
             let ts = num "ts" e in
             if ts < last then
               QCheck.Test.fail_reportf "tid %d: ts %.1f after %.1f" tid ts
                 last;
             ts)
           neg_infinity evs))
    (by_tid evs)

let prop_roundtrip =
  QCheck.Test.make ~name:"Trace export is balanced, monotone, well-formed"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map op_str ops))
       QCheck.Gen.(list_size (int_bound 20) op_gen))
    (fun ops ->
      let tr, tick = stepped () in
      List.iter (apply tr tick) ops;
      let evs = non_meta (read_back tr) in
      if List.length evs <> Trace.events tr then
        QCheck.Test.fail_reportf "serialized %d events, tracer counted %d"
          (List.length evs) (Trace.events tr);
      check_wellformed evs;
      true)

(* ---------- real parallelism ---------- *)

let test_multi_domain () =
  let tr = Trace.create () in
  let spans_per_domain = 50 in
  let work () =
    for i = 1 to spans_per_domain do
      Trace.span tr "work" (fun () -> Trace.counter tr "i" i)
    done
  in
  let doms = Array.init 3 (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join doms;
  Alcotest.(check int) "all events recorded"
    (4 * spans_per_domain * 3)
    (Trace.events tr);
  let evs = non_meta (read_back tr) in
  let groups = by_tid evs in
  Alcotest.(check int) "one track per domain" 4 (List.length groups);
  check_wellformed evs;
  (* tracks come out sorted by domain id *)
  let tids = List.map fst groups in
  Alcotest.(check (list int)) "tracks sorted" (List.sort compare tids) tids

(* Eight short-lived domains (as each Pool.map spawns) emit one span
   each: what the tracer holds follows its 16 events, not its 8 domains,
   so it stays at a few hundred words. *)
let test_memory_follows_events () =
  let tr = Trace.create () in
  let doms =
    Array.init 8 (fun _ -> Domain.spawn (fun () -> Trace.span tr "one" ignore))
  in
  Array.iter Domain.join doms;
  Alcotest.(check int) "one span per domain" 16 (Trace.events tr);
  let words = Obj.reachable_words (Obj.repr tr) in
  if words > 10_000 then
    Alcotest.failf "tracer holds %d words for 16 events" words

let suite =
  [
    Alcotest.test_case "span slices on a stepped clock" `Quick test_span_slices;
    Alcotest.test_case "complete and end args" `Quick test_complete_and_end_args;
    Alcotest.test_case "backwards clock clamped" `Quick
      test_backwards_clock_clamped;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "multi-domain tracks" `Quick test_multi_domain;
    Alcotest.test_case "memory follows events, not domains" `Quick
      test_memory_follows_events;
  ]
