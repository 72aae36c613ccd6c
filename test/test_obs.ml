module Obs = Stc_obs
module Json = Stc_obs.Json
module Registry = Stc_obs.Registry
module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline

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

(* An ignore prefix drops counters by their name and events by their
   kind from both sides. *)
let test_diff_ignores () =
  let export ~hits ~warn =
    let reg = Registry.create () in
    Registry.add reg "engine.runs" 2;
    Registry.add reg "store.hits" hits;
    if warn then Registry.event reg ~kind:"store.warning" [];
    Json.lines (Obs.Export.to_jsonl reg)
  in
  let a = export ~hits:0 ~warn:false and b = export ~hits:3 ~warn:true in
  let drift ignores =
    fst (Obs.Diff.diff_records ~ignores ~a_label:"a" ~b_label:"b" a b)
  in
  Alcotest.(check int) "unignored drift" 2 (List.length (drift []));
  Alcotest.(check (list string)) "counter and event ignored" []
    (drift [ "store." ]);
  Alcotest.(check int) "a prefix, not a substring" 2
    (List.length (drift [ "hits"; "warning" ]))

(* Events pair by position in the export, whatever their kind: the same
   three events with their kinds interleaved differently drift. The
   meta line is compared too. *)
let test_diff_event_order () =
  let export kinds =
    let reg = Registry.create () in
    List.iter
      (fun (kind, n) -> Registry.event reg ~kind [ ("n", Json.Int n) ])
      kinds;
    Json.lines (Obs.Export.to_jsonl reg)
  in
  let a = export [ ("cell", 1); ("store.warning", 2); ("cell", 3) ]
  and b = export [ ("cell", 1); ("cell", 3); ("store.warning", 2) ] in
  let drift a b = fst (Obs.Diff.diff_records ~a_label:"a" ~b_label:"b" a b) in
  Alcotest.(check (list string)) "same order" [] (drift a a);
  Alcotest.(check bool) "interleaving drifts" true (drift a b <> []);
  let meta2 = Json.of_string {|{"type":"meta","schema":2}|} in
  Alcotest.(check bool) "schema drifts" true
    (drift a (meta2 :: List.tl a) <> [])

(* ---------- registry ---------- *)

let test_registry_roundtrip () =
  let reg = Registry.create () in
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

(* ---------- golden export ---------- *)

let test_export_golden () =
  let reg = Registry.create () in
  Registry.add reg "a.hits" 3;
  Registry.set reg "g" 1.5;
  Registry.event reg ~kind:"cell"
    [ ("layout", Json.Str "ops"); ("miss_pct", Json.Float 1.25) ];
  let expected =
    String.concat "\n"
      [
        {|{"type":"meta","schema":3}|};
        {|{"type":"counter","name":"a.hits","value":3}|};
        {|{"type":"gauge","name":"g","value":1.5}|};
        {|{"type":"event","kind":"cell","layout":"ops","miss_pct":1.25}|};
        "";
      ]
  in
  Alcotest.(check string) "golden JSONL" expected (Obs.Export.to_jsonl reg)

(* ---------- phase and build counts, read from the trace ---------- *)

let tiny_config = { Pipeline.quick_config with Pipeline.sf = 0.0003 }

(* The path of every slice, outermost name first, one per call, from
   the B/E events of a trace whose slices all ran on one domain. *)
let slice_paths evs =
  let paths = ref [] and open_ = ref [] in
  List.iter
    (fun e ->
      match (Json.member "ph" e, Json.member "name" e) with
      | Some (Json.Str "B"), Some (Json.Str name) ->
        open_ := name :: !open_;
        paths := List.rev !open_ :: !paths
      | Some (Json.Str "E"), _ -> open_ := List.tl !open_
      | _ -> ())
    evs;
  !paths

(* How often each phase and each layout build ran: a grid that builds
   a layout twice, or skips a phase, changes a count. Three grid points
   for [simulate], two sweep points for [ablation], and the first two
   cache sizes for [extended], restricted to ops to keep the FDIP
   replays short. A fused group's slice names the grid point it replays,
   so no two of a grid's [fused:] slices share a name. *)
let test_traced_build_counts () =
  let tr = Obs.Trace.create () in
  let ctx = Stc_core.Run.(with_trace tr default) in
  let config =
    { E.default_sim_config with E.grid = [ (8, [ 2; 4 ]); (16, [ 2 ]) ] }
  in
  let pl = Pipeline.run ~ctx ~config:tiny_config () in
  ignore (E.simulate ~ctx ~config pl);
  ignore
    (E.ablation ~ctx ~cache_kb:8 ~exec_thresholds:[ 10; 50 ]
       ~branch_thresholds:[ 0.3 ] ~cfa_kbs:[ 2 ] pl);
  ignore (E.extended ~ctx ~config ~layouts:[ "ops" ] pl);
  let paths = slice_paths (Test_obs_trace.read_back tr) in
  (* calls per slice path ("simulate-grid/layout-stc-ops") *)
  let calls path =
    List.length (List.filter (fun p -> String.concat "/" p = path) paths)
  in
  let check path n = Alcotest.(check int) path n (calls path) in
  List.iter
    (fun (path, n) -> check path n)
    [ ("kernel-build", 1); ("datagen", 1); ("db-load", 2);
      ("record-training", 1); ("record-test", 1); ("build-profile", 1);
      ("simulate-grid", 1); ("simulate-grid/layout-original", 1);
      ("simulate-grid/layout-pettis-hansen", 1); ("ablation-grid", 1);
      ("layout-stc-ops", 0); ("ablation-grid/layout-stc-ops", 2);
      ("extended-grid", 1); ("extended-grid/layout-original", 1);
      ("extended-grid/layout-pettis-hansen", 0);
      ("extended-grid/layout-stc-ops", 2);
      ("extended-grid/cachesim.temperature", 4) ];
  List.iter
    (fun a ->
      if a.Stc_layout.Algo.uses_cfa then
        check ("simulate-grid/layout-" ^ a.Stc_layout.Algo.slug) 3)
    (Stc_layout.Algo.all ());
  List.iter
    (fun grid ->
      let labels =
        List.filter_map
          (function
            | [ g; "pool.chunk"; label ]
              when g = grid && String.starts_with ~prefix:"fused:" label ->
              Some label
            | _ -> None)
          paths
      in
      Alcotest.(check bool) (grid ^ " has fused slices") true (labels <> []);
      Alcotest.(check (list string))
        (grid ^ " fused labels distinct")
        (List.sort_uniq compare labels)
        (List.sort compare labels))
    [ "simulate-grid"; "extended-grid" ]

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects;
    Alcotest.test_case "diff ignore prefixes" `Quick test_diff_ignores;
    Alcotest.test_case "diff pairs events in export order" `Quick
      test_diff_event_order;
    Alcotest.test_case "registry roundtrip" `Quick test_registry_roundtrip;
    Alcotest.test_case "export golden" `Quick test_export_golden;
    Alcotest.test_case "traced phase and build counts" `Slow
      test_traced_build_counts;
  ]
