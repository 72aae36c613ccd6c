module Obs = Stc_obs
module Json = Stc_obs.Json
module Registry = Stc_obs.Registry
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
        Registry.add reg "engine.runs" 2;
        Registry.span reg "study" (fun () -> ()))
  in
  let b =
    export (fun reg ->
        Registry.add reg "engine.runs" 2;
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

(* Events pair by position in the export, whatever their kind: the same
   three events with their kinds interleaved differently drift. *)
let test_diff_event_order () =
  let export kinds =
    let reg = Registry.create ~clock:(fun () -> 0.0) () in
    List.iter
      (fun (kind, n) -> Registry.event reg ~kind [ ("n", Json.Int n) ])
      kinds;
    Json.lines (Obs.Export.to_jsonl reg)
  in
  let a = export [ ("cell", 1); ("store.warning", 2); ("cell", 3) ]
  and b = export [ ("cell", 1); ("cell", 3); ("store.warning", 2) ] in
  let drift a b = fst (Obs.Diff.diff_records ~a_label:"a" ~b_label:"b" a b) in
  Alcotest.(check (list string)) "same order" [] (drift a a);
  Alcotest.(check bool) "interleaving drifts" true (drift a b <> [])

(* ---------- registry ---------- *)

let test_registry_roundtrip () =
  let reg = Registry.create ~clock:(fun () -> 0.0) () in
  Registry.add reg "sim.runs" 3;
  Registry.add reg "sim.runs" 4;
  Registry.add reg "sim.zero" 0;
  Registry.set reg "sim.sf" 0.25;
  Registry.set reg "sim.sf" 0.5;
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Stc_obs.Registry: \"sim.runs\" is not a gauge")
    (fun () -> Registry.set reg "sim.runs" 1.0);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Stc_obs.Registry: \"sim.sf\" is not a counter")
    (fun () -> Registry.add reg "sim.sf" 1);
  (* export -> parse -> values survive *)
  let records = Json.lines (Obs.Export.to_jsonl reg) in
  let find name =
    List.find_opt
      (fun r -> Json.member "name" r = Some (Json.Str name))
      records
  in
  let check_counter name v =
    match find name with
    | Some r ->
      Alcotest.(check bool) (name ^ " value") true
        (Json.member "value" r = Some (Json.Int v))
    | None -> Alcotest.failf "%s not exported" name
  in
  check_counter "sim.runs" 7;
  check_counter "sim.zero" 0;
  match find "sim.sf" with
  | Some r ->
    Alcotest.(check bool) "gauge value" true
      (Json.member "value" r = Some (Json.Float 0.5))
  | None -> Alcotest.fail "sim.sf not exported"

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
  Registry.add reg "a.hits" 3;
  Registry.set reg "g" 1.5;
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
        {|{"type":"span","path":"build","depth":0,"calls":1,"seconds":2}|};
        {|{"type":"span","path":"build/inner","depth":1,"calls":2,"seconds":1}|};
        {|{"type":"event","kind":"cell","layout":"ops","miss_pct":1.25}|};
        "";
      ]
  in
  Alcotest.(check string) "golden JSONL" expected (Obs.Export.to_jsonl reg)

let strip_seconds records =
  List.map
    (function
      | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "seconds") fields)
      | v -> v)
    records

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
  for _ = 1 to 100 do
    Obs.Progress.step p
  done;
  Alcotest.(check int) "one report per interval" 12 (List.length !lines);
  Obs.Progress.finish p;
  Obs.Progress.finish p;
  Alcotest.(check int) "finish reports once" 13 (List.length !lines);
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
    Alcotest.test_case "diff pairs events in export order" `Quick
      test_diff_event_order;
    Alcotest.test_case "registry roundtrip" `Quick test_registry_roundtrip;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "export golden" `Quick test_export_golden;
    Alcotest.test_case "progress reporter" `Quick test_progress;
    Alcotest.test_case "same-seed determinism" `Slow test_determinism;
  ]
