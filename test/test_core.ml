module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline

let pl =
  lazy
    (Pipeline.run
       ~config:
         { Pipeline.quick_config with Pipeline.sf = 0.0004 }
       ())

let test_pipeline_smoke () =
  let pl = Lazy.force pl in
  Alcotest.(check bool) "training nonempty" true
    (Stc_trace.Recorder.length pl.Pipeline.training > 10_000);
  Alcotest.(check bool) "test nonempty" true
    (Stc_trace.Recorder.length pl.Pipeline.test > 10_000);
  Alcotest.(check int) "training jobs marked" 5
    (List.length (Stc_trace.Recorder.marks pl.Pipeline.training));
  Alcotest.(check int) "test jobs marked" 20
    (List.length (Stc_trace.Recorder.marks pl.Pipeline.test))

let test_table1_consistent () =
  let pl = Lazy.force pl in
  let fp = E.table1 pl in
  let sc = Stc_cfg.Program.static_counts pl.Pipeline.program in
  Alcotest.(check int) "totals from program" sc.Stc_cfg.Program.n_blocks
    fp.Stc_profile.Footprint.blocks_total;
  Alcotest.(check bool) "executed <= total" true
    (fp.Stc_profile.Footprint.blocks_executed
    <= fp.Stc_profile.Footprint.blocks_total);
  Alcotest.(check bool) "something executed" true
    (fp.Stc_profile.Footprint.procs_executed > 50)

let test_figure2_monotone () =
  let pl = Lazy.force pl in
  let pts =
    Stc_profile.Popularity.(
      curve (compute pl.Pipeline.profile) ~max_blocks:2000 ~step:100)
  in
  let rec check = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      Alcotest.(check bool) "monotone" true (b >= a -. 1e-9);
      check rest
    | _ -> ()
  in
  check pts;
  Alcotest.(check bool) "last below or equal 1" true
    (snd (List.nth pts (List.length pts - 1)) <= 1.0 +. 1e-9)

let test_table2_shares_sum () =
  let pl = Lazy.force pl in
  let d = E.table2 pl in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 d.Stc_profile.Determinism.rows in
  Alcotest.(check (float 0.1)) "static sums to 100"
    100.0 (sum (fun r -> r.Stc_profile.Determinism.static_pct));
  Alcotest.(check (float 0.1)) "dynamic sums to 100"
    100.0 (sum (fun r -> r.Stc_profile.Determinism.dynamic_pct))

let small_grid =
  { E.default_sim_config with E.grid = [ (8, [ 2 ]); (16, [ 4 ]) ] }

let test_simulate_shapes () =
  let pl = Lazy.force pl in
  let rows = E.simulate ~config:small_grid pl in
  let get layout cache_kb variant =
    match
      List.find_opt
        (fun (r : E.row) ->
          String.equal r.E.layout layout
          && r.E.cache_kb = cache_kb && r.E.variant = variant)
        rows
    with
    | Some r -> r
    | None -> Alcotest.failf "row %s/%d missing" layout cache_kb
  in
  (* every layout beats the original at both sizes *)
  List.iter
    (fun cache_kb ->
      let orig = get "orig" cache_kb E.Direct in
      List.iter
        (fun layout ->
          let r = get layout cache_kb E.Direct in
          Alcotest.(check bool)
            (Printf.sprintf "%s misses <= orig at %dKB" layout cache_kb)
            true
            (r.E.miss_pct <= orig.E.miss_pct))
        [ "P&H"; "Torr"; "auto"; "ops" ];
      (* bandwidth improves for STC *)
      let ops = get "ops" cache_kb E.Direct in
      Alcotest.(check bool) "ops bandwidth better" true
        (ops.E.bandwidth > orig.E.bandwidth))
    [ 8; 16 ];
  (* trace cache on top of ops beats both alone *)
  let tc = get "orig" 16 E.Trace_cache in
  let tc_ops = get "ops" 16 E.Trace_cache in
  let ops = get "ops" 16 E.Direct in
  Alcotest.(check bool) "tc+ops >= tc" true (tc_ops.E.bandwidth >= tc.E.bandwidth);
  Alcotest.(check bool) "tc+ops >= ops" true (tc_ops.E.bandwidth >= ops.E.bandwidth);
  (* ideal rows have no misses *)
  List.iter
    (fun (r : E.row) ->
      if r.E.variant = E.Ideal then
        Alcotest.(check (float 1e-9)) "ideal has no misses" 0.0 r.E.miss_pct)
    rows

let test_sequentiality_improves () =
  let pl = Lazy.force pl in
  let rows = E.simulate ~config:small_grid pl in
  let ibt layout =
    match
      List.find_opt
        (fun (r : E.row) -> String.equal r.E.layout layout && r.E.variant = E.Ideal)
        rows
    with
    | Some r -> r.E.instrs_between_taken
    | None -> Alcotest.failf "no ideal row for %s" layout
  in
  Alcotest.(check bool) "ops roughly doubles the run length" true
    (ibt "ops" > 1.5 *. ibt "orig")

let test_ablation_rows () =
  let pl = Lazy.force pl in
  let rows =
    E.ablation ~cache_kb:8 ~exec_thresholds:[ 5; 100 ]
      ~branch_thresholds:[ 0.3 ] ~cfa_kbs:[ 2; 4 ] pl
  in
  Alcotest.(check int) "2x1x2 rows" 4 (List.length rows);
  List.iter
    (fun (r : E.ablation_row) ->
      Alcotest.(check bool) "sane bandwidth" true
        (r.E.a_bandwidth > 0.5 && r.E.a_bandwidth <= 16.0))
    rows

let test_determinism_of_pipeline () =
  (* same config -> identical traces *)
  let config = { Pipeline.quick_config with Pipeline.sf = 0.0003 } in
  let a = Pipeline.run ~config () and b = Pipeline.run ~config () in
  Alcotest.(check int64) "training equal"
    (Stc_trace.Recorder.hash a.Pipeline.training)
    (Stc_trace.Recorder.hash b.Pipeline.training);
  Alcotest.(check int64) "test equal"
    (Stc_trace.Recorder.hash a.Pipeline.test)
    (Stc_trace.Recorder.hash b.Pipeline.test)

(* Each TRRIP table derivation of the extended grid is a trace-only
   slice: one per built layout, and the rows do not change with tracing
   on. *)
let test_extended_traces_temperatures () =
  let pl = Lazy.force pl in
  let layouts = [ "ops" ] in
  let config = { E.default_sim_config with E.grid = [ (8, [ 2 ]) ] } in
  let plain = E.extended ~config ~layouts pl in
  let tr = Stc_obs.Trace.create () in
  let ctx = Stc_obs.Run.with_trace tr Stc_obs.Run.default in
  let traced = E.extended ~ctx ~config ~layouts pl in
  Alcotest.(check bool) "rows unchanged" true (plain = traced);
  let slices =
    List.length
      (List.filter
         (fun e ->
           Stc_obs.Json.member "name" e
           = Some (Stc_obs.Json.Str "cachesim.temperature")
           && Stc_obs.Json.member "ph" e = Some (Stc_obs.Json.Str "B"))
         (Test_obs_trace.read_back tr))
  in
  (* orig and ops *)
  Alcotest.(check int) "one slice per layout" 2 slices

let suite =
  [
    Alcotest.test_case "pipeline smoke" `Quick test_pipeline_smoke;
    Alcotest.test_case "table1 consistent" `Quick test_table1_consistent;
    Alcotest.test_case "figure2 monotone" `Quick test_figure2_monotone;
    Alcotest.test_case "table2 shares sum" `Quick test_table2_shares_sum;
    Alcotest.test_case "simulate shapes" `Slow test_simulate_shapes;
    Alcotest.test_case "sequentiality improves" `Slow test_sequentiality_improves;
    Alcotest.test_case "ablation rows" `Slow test_ablation_rows;
    Alcotest.test_case "extended grid traces temperatures" `Slow
      test_extended_traces_temperatures;
    Alcotest.test_case "pipeline deterministic" `Slow test_determinism_of_pipeline;
  ]
