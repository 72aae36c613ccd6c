module Obs = Stc_obs
module Json = Stc_obs.Json
module Registry = Stc_obs.Registry
module Counter = Stc_obs.Metric.Counter
module Gauge = Stc_obs.Metric.Gauge
module Histogram = Stc_obs.Metric.Histogram
module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline

let contains = Astring_like.contains

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.Str "a \"quoted\"\nline\twith\\stuff";
      Json.List [ Json.Int 1; Json.Str "x"; Json.List [] ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Float 0.25 ]) ]);
          ("empty", Json.Obj []);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (Json.of_string s = v))
    samples;
  Alcotest.(check bool) "whitespace tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ])

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Failure _ -> ()
      | v ->
        Alcotest.failf "parsed garbage %S as %s" s (Json.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul" ]

(* ---------- diff ---------- *)

(* An ignore prefix drops counters, events and spans by their own name —
   a span's last path component — from both sides. *)
let test_diff_ignores () =
  let export build =
    let reg = Registry.create ~clock:(fun () -> 0.0) () in
    build reg;
    Json.lines (Obs.Export.to_jsonl reg)
  in
  let a =
    export (fun reg ->
        Counter.add (Registry.counter reg "engine.runs") 2;
        Registry.span reg "study" (fun () -> ()))
  in
  let b =
    export (fun reg ->
        Counter.add (Registry.counter reg "engine.runs") 2;
        Registry.span reg "study" (fun () ->
            Registry.span reg "layout-ops" (fun () -> ()));
        Registry.event reg ~kind:"study.cell" [ ("n", Json.Int 1) ])
  in
  let drift ignores =
    fst (Obs.Diff.diff_records ~ignores ~a_label:"a" ~b_label:"b" a b)
  in
  Alcotest.(check int) "unignored drift" 2 (List.length (drift []));
  Alcotest.(check (list string)) "span and event ignored" []
    (drift [ "layout-"; "study.cell" ]);
  Alcotest.(check int) "a parent's name does not hide its child" 1
    (List.length (drift [ "study" ]))

(* ---------- registry ---------- *)

let test_registry_roundtrip () =
  let reg = Registry.create ~clock:(fun () -> 0.0) () in
  let c = Registry.counter reg "sim.runs" in
  Counter.add c 7;
  Alcotest.(check bool) "interned" true (Registry.counter reg "sim.runs" == c);
  Gauge.set (Registry.gauge reg "sim.sf") 0.5;
  let free = Counter.make "hits" in
  Counter.incr free;
  Registry.attach_counter ~prefix:"icache." reg free;
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Stc_obs.Registry: duplicate metric \"icache.hits\"")
    (fun () -> Registry.attach_counter ~prefix:"icache." reg (Counter.make "hits"));
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Stc_obs.Registry: \"sim.runs\" is not a gauge")
    (fun () -> ignore (Registry.gauge reg "sim.runs"));
  (* export -> parse -> values survive *)
  let records = Json.lines (Obs.Export.to_jsonl reg) in
  let find name =
    List.find_opt
      (fun r -> Json.member "name" r = Some (Json.Str name))
      records
  in
  (match find "sim.runs" with
  | Some r -> Alcotest.(check bool) "counter value" true (Json.member "value" r = Some (Json.Int 7))
  | None -> Alcotest.fail "sim.runs not exported");
  (match find "icache.hits" with
  | Some r -> Alcotest.(check bool) "attached value" true (Json.member "value" r = Some (Json.Int 1))
  | None -> Alcotest.fail "icache.hits not exported");
  match find "sim.sf" with
  | Some r ->
    Alcotest.(check bool) "gauge value" true
      (Json.member "value" r = Some (Json.Float 0.5))
  | None -> Alcotest.fail "sim.sf not exported"

let test_histogram_buckets () =
  let h = Histogram.make "reuse" in
  List.iter (Histogram.add h ?weight:None) [ 0; 1; 2; 3; 4; 7; 8 ];
  (* buckets: [0,1)->1  [1,2)->1  [2,4)->2  [4,8)->2  [8,16)->1 *)
  Alcotest.(check (list (triple int int int)))
    "bucket boundaries"
    [ (0, 1, 1); (1, 2, 1); (2, 4, 2); (4, 8, 2); (8, 16, 1) ]
    (Histogram.buckets h);
  Alcotest.(check int) "total" 7 (Histogram.total h);
  Alcotest.(check (float 1e-9)) "mass below 2" (2.0 /. 7.0)
    (Histogram.mass_below h 2)

(* ---------- spans ---------- *)

let test_span_nesting () =
  let t = ref 0.0 in
  let reg = Registry.create ~clock:(fun () -> !t) () in
  let tick d = t := !t +. d in
  Registry.span reg "build" (fun () ->
      tick 0.5;
      Registry.span reg "inner" (fun () -> tick 0.5);
      Registry.span reg "inner" (fun () -> tick 0.5);
      Registry.span reg "other" (fun () ->
          Registry.span reg "deep" (fun () -> tick 0.25));
      tick 0.25);
  (try
     Registry.span reg "failing" (fun () ->
         tick 1.0;
         failwith "boom")
   with Failure _ -> ());
  let spans = Registry.spans reg in
  let find path =
    match
      List.find_opt (fun i -> String.equal i.Registry.Span.path path) spans
    with
    | Some i -> i
    | None -> Alcotest.failf "span %s missing" path
  in
  Alcotest.(check int) "preorder count" 5 (List.length spans);
  Alcotest.(check (list string))
    "preorder paths"
    [ "build"; "build/inner"; "build/other"; "build/other/deep"; "failing" ]
    (List.map (fun i -> i.Registry.Span.path) spans);
  let check_span path calls seconds depth =
    let i = find path in
    Alcotest.(check int) (path ^ " calls") calls i.Registry.Span.calls;
    Alcotest.(check (float 1e-9)) (path ^ " seconds") seconds i.Registry.Span.seconds;
    Alcotest.(check int) (path ^ " depth") depth i.Registry.Span.depth
  in
  check_span "build" 1 2.0 0;
  check_span "build/inner" 2 1.0 1;
  check_span "build/other" 1 0.25 1;
  check_span "build/other/deep" 1 0.25 2;
  (* the exception-unwound span still accumulated its time *)
  check_span "failing" 1 1.0 0

(* ---------- golden export ---------- *)

let test_export_golden () =
  let t = ref 0.0 in
  let reg = Registry.create ~clock:(fun () -> !t) () in
  Counter.add (Registry.counter reg "a.hits") 3;
  Gauge.set (Registry.gauge reg "g") 1.5;
  let h = Registry.histogram reg "h" in
  Histogram.add h 0;
  Histogram.add h ~weight:2 10;
  Registry.span reg "build" (fun () ->
      t := !t +. 0.5;
      Registry.span reg "inner" (fun () -> t := !t +. 0.5);
      Registry.span reg "inner" (fun () -> t := !t +. 0.5);
      t := !t +. 0.5);
  Registry.event reg ~kind:"cell"
    [ ("layout", Json.Str "ops"); ("miss_pct", Json.Float 1.25) ];
  let expected =
    String.concat "\n"
      [
        {|{"type":"meta","schema":3}|};
        {|{"type":"counter","name":"a.hits","value":3}|};
        {|{"type":"gauge","name":"g","value":1.5}|};
        (* quantiles are bucket lower bounds: the weighted median of
           {0, 10, 10} lands in the [8,16) bucket *)
        {|{"type":"histo","name":"h","total":3,"p50":8,"p90":8,"p99":8,"buckets":[[0,1,1],[8,16,2]]}|};
        {|{"type":"span","path":"build","depth":0,"calls":1,"seconds":2}|};
        {|{"type":"span","path":"build/inner","depth":1,"calls":2,"seconds":1}|};
        {|{"type":"event","kind":"cell","layout":"ops","miss_pct":1.25}|};
        "";
      ]
  in
  Alcotest.(check string) "golden JSONL" expected (Obs.Export.to_jsonl reg);
  (* the summary renderer accepts the same registry *)
  let summary = Obs.Export.summary reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (contains summary needle))
    [ "a.hits"; "build"; "inner"; "cell"; "miss_pct" ]

(* ---------- merge ---------- *)

(* A random registry workload: kind-namespaced names (c./g./h./s.) so an
   operation never hits a same-named metric of another kind. *)
type mop =
  | Add_counter of int * int
  | Set_gauge of int * float
  | Add_histo of int * int * int  (* name idx, value, weight *)
  | Emit_event of int
  | Time_span of int

let apply_mop reg = function
  | Add_counter (i, v) ->
    Counter.add (Registry.counter reg (Printf.sprintf "c.%d" i)) v
  | Set_gauge (i, v) -> Gauge.set (Registry.gauge reg (Printf.sprintf "g.%d" i)) v
  | Add_histo (i, v, w) ->
    Histogram.add (Registry.histogram reg (Printf.sprintf "h.%d" i)) ~weight:w v
  | Emit_event i -> Registry.event reg ~kind:"e" [ ("i", Json.Int i) ]
  | Time_span i ->
    Registry.span reg (Printf.sprintf "s.%d" i) (fun () -> ())

let mop_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i v -> Add_counter (i, v)) (int_bound 2) (int_bound 100);
        map2
          (fun i v -> Set_gauge (i, float_of_int v))
          (int_bound 1) (int_bound 50);
        map3
          (fun i v w -> Add_histo (i, v, 1 + w))
          (int_bound 1) (int_bound 1000) (int_bound 3);
        map (fun i -> Emit_event i) (int_bound 9);
        map (fun i -> Time_span i) (int_bound 1);
      ])

let mop_str = function
  | Add_counter (i, v) -> Printf.sprintf "c.%d+=%d" i v
  | Set_gauge (i, v) -> Printf.sprintf "g.%d:=%g" i v
  | Add_histo (i, v, w) -> Printf.sprintf "h.%d<-%d(w%d)" i v w
  | Emit_event i -> Printf.sprintf "e(%d)" i
  | Time_span i -> Printf.sprintf "s.%d" i

let zero_clock_reg () = Registry.create ~clock:(fun () -> 0.0) ()

let strip_seconds records =
  List.map
    (function
      | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "seconds") fields)
      | v -> v)
    records

let export reg = strip_seconds (Json.lines (Obs.Export.to_jsonl reg))

(* Merging N shards (in order) must be indistinguishable from applying
   every shard's operations sequentially to one registry: counters sum,
   gauges keep the last write, histogram buckets union, span calls sum,
   events concatenate in shard order. *)
let prop_merge_sequential =
  QCheck.Test.make ~name:"Registry.merge = sequential accumulation" ~count:200
    (QCheck.make
       ~print:(fun shards ->
         String.concat " | "
           (List.map
              (fun ops -> String.concat "," (List.map mop_str ops))
              shards))
       QCheck.Gen.(list_size (int_bound 4) (list_size (int_bound 20) mop_gen)))
    (fun shards ->
      let seq = zero_clock_reg () in
      List.iter (fun ops -> List.iter (apply_mop seq) ops) shards;
      let main = zero_clock_reg () in
      List.iter
        (fun ops ->
          let shard = zero_clock_reg () in
          List.iter (apply_mop shard) ops;
          Registry.merge ~into:main shard)
        shards;
      if export main <> export seq then
        QCheck.Test.fail_reportf "merged export differs:\n%s\nvs sequential:\n%s"
          (String.concat "\n" (List.map Json.to_string (export main)))
          (String.concat "\n" (List.map Json.to_string (export seq)));
      true)

let test_merge_mismatch () =
  let a = Registry.create () and b = Registry.create () in
  Counter.incr (Registry.counter a "m");
  Gauge.set (Registry.gauge b "m") 1.0;
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Stc_obs.Registry.merge: \"m\" is not a counter")
    (fun () -> Registry.merge ~into:b a);
  Alcotest.check_raises "self-merge rejected"
    (Invalid_argument "Stc_obs.Registry.merge: cannot merge a registry into itself")
    (fun () -> Registry.merge ~into:a a)

(* ---------- progress ---------- *)

let test_progress () =
  let t = ref 0.0 in
  let lines = ref [] in
  let p =
    Obs.Progress.create ~interval:10 ~total:100
      ~clock:(fun () ->
        t := !t +. 0.01;
        !t)
      ~emit:(fun s -> lines := s :: !lines)
      ~label:"trace" ()
  in
  for _ = 1 to 25 do
    Obs.Progress.step p
  done;
  Alcotest.(check int) "reports every interval" 2 (List.length !lines);
  Obs.Progress.add p 100;
  Alcotest.(check int) "bulk add reports once" 3 (List.length !lines);
  Alcotest.(check int) "count" 125 (Obs.Progress.count p);
  Obs.Progress.finish p;
  Obs.Progress.finish p;
  Alcotest.(check int) "finish reports once" 4 (List.length !lines);
  Alcotest.(check bool) "final line shows count/total" true
    (contains (List.hd !lines) "trace: 125/100 (125%)")

(* ---------- determinism over the real pipeline ---------- *)

let tiny_config = { Pipeline.quick_config with Pipeline.sf = 0.0003 }

let tiny_grid = { E.default_sim_config with E.grid = [ (8, [ 2 ]) ] }

let run_with_metrics () =
  let reg = Registry.create () in
  let ctx = Stc_core.Run.(with_metrics reg default) in
  let pl = Pipeline.run ~ctx ~config:tiny_config () in
  ignore (E.simulate ~ctx ~config:tiny_grid pl);
  reg

let test_determinism () =
  let a = run_with_metrics () and b = run_with_metrics () in
  let ra = strip_seconds (Json.lines (Obs.Export.to_jsonl a)) in
  let rb = strip_seconds (Json.lines (Obs.Export.to_jsonl b)) in
  Alcotest.(check int) "same record count" (List.length ra) (List.length rb);
  List.iter2
    (fun x y ->
      if x <> y then
        Alcotest.failf "metric drift between same-seed runs:\n%s\n%s"
          (Json.to_string x) (Json.to_string y))
    ra rb;
  (* the export contains what the acceptance criteria ask for *)
  let has pred = List.exists pred ra in
  Alcotest.(check bool) "has spans" true
    (has (fun r -> Json.member "type" r = Some (Json.Str "span")));
  Alcotest.(check bool) "has record-test span" true
    (has (fun r -> Json.member "path" r = Some (Json.Str "record-test")));
  Alcotest.(check bool) "has table34 cells" true
    (has (fun r -> Json.member "kind" r = Some (Json.Str "table34.cell")));
  Alcotest.(check bool) "cells carry icache counters" true
    (has (fun r ->
         Json.member "kind" r = Some (Json.Str "table34.cell")
         && Json.member "icache_accesses" r <> None))

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects;
    Alcotest.test_case "diff ignore prefixes" `Quick test_diff_ignores;
    Alcotest.test_case "registry roundtrip" `Quick test_registry_roundtrip;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "export golden" `Quick test_export_golden;
    QCheck_alcotest.to_alcotest prop_merge_sequential;
    Alcotest.test_case "merge rejects mismatches" `Quick test_merge_mismatch;
    Alcotest.test_case "progress reporter" `Quick test_progress;
    Alcotest.test_case "same-seed determinism" `Slow test_determinism;
  ]
