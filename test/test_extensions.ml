module L = Stc_layout
module E = Stc_core.Extensions
module Pipeline = Stc_core.Pipeline
module Recorder = Stc_trace.Recorder

let pl =
  lazy (Pipeline.run ~config:{ Pipeline.quick_config with Pipeline.sf = 0.0004 } ())

(* ---------- inlining ---------- *)

let transform () =
  let pl = Lazy.force pl in
  L.Inline.transform
    ~config:
      { L.Inline.min_call_count = 100; max_callee_blocks = 24; max_clones = 32 }
    pl.Pipeline.profile

let test_inline_program_valid () =
  let tr = transform () in
  match Stc_cfg.Program.validate (L.Inline.program tr) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_inline_finds_sites () =
  let tr = transform () in
  Alcotest.(check bool) "some sites inlined" true (L.Inline.inlined_sites tr > 0);
  Alcotest.(check bool) "code grows" true (L.Inline.code_growth_pct tr > 0.0)

let test_inline_remap_is_legal_walk () =
  let pl = Lazy.force pl in
  let tr = transform () in
  let remapped = L.Inline.remap_trace tr pl.Pipeline.test in
  Alcotest.(check int) "same length" (Recorder.length pl.Pipeline.test)
    (Recorder.length remapped);
  match
    Stc_trace.Check.check_all (L.Inline.program tr) (fun f ->
        Stc_trace.Source.iter (Stc_trace.Source.of_recorder remapped) f)
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_inline_preserves_instr_count_modulo_calls () =
  (* Each inlined activation drops exactly one instruction (the call); the
     remapped trace must otherwise preserve dynamic instructions. *)
  let pl = Lazy.force pl in
  let tr = transform () in
  let prog = pl.Pipeline.program and prog' = L.Inline.program tr in
  let count prog rec_ =
    let total = ref 0 in
    Stc_trace.Source.iter (Stc_trace.Source.of_recorder rec_) (fun b ->
        total := !total + prog.Stc_cfg.Program.blocks.(b).Stc_cfg.Block.size);
    !total
  in
  let base = count prog pl.Pipeline.test in
  let remapped = count prog' (L.Inline.remap_trace tr pl.Pipeline.test) in
  Alcotest.(check bool) "at most one instr per block dropped" true
    (remapped <= base && remapped > base * 9 / 10)

let test_inline_improves_original_layout () =
  let pl = Lazy.force pl in
  let report = E.inlining ~cache_kb:16 ~cfa_kb:4 pl in
  let find variant layout =
    List.find
      (fun r -> r.E.i_variant = variant && r.E.i_layout = layout)
      report.E.inl_rows
  in
  let base = find "base" "orig" and inl = find "inlined" "orig" in
  Alcotest.(check bool) "sequentiality no worse" true
    (inl.E.i_ibt >= base.E.i_ibt -. 0.2);
  Alcotest.(check bool) "ipc no worse" true (inl.E.i_ipc >= base.E.i_ipc -. 0.05)

(* ---------- OLTP ---------- *)

let test_oltp_plans_match_oracle () =
  let pl = Lazy.force pl in
  let db = pl.Pipeline.db_btree in
  let data =
    Stc_dbdata.Datagen.generate ~seed:pl.Pipeline.config.Pipeline.data_seed
      ~sf:pl.Pipeline.config.Pipeline.sf ()
  in
  let oracle = Stc_workload.Oracle.of_data data in
  List.iter
    (fun txn ->
      let plan = Stc_workload.Oltp.plan txn in
      let engine = Stc_db.Exec.run db plan in
      let expected = Stc_workload.Oracle.run oracle plan in
      Alcotest.(check int) "row count" (List.length expected)
        (List.length engine);
      Alcotest.(check bool) "rows equal" true
        (List.sort compare (List.map Array.to_list engine)
        = List.sort compare (List.map Array.to_list expected)))
    (Stc_workload.Oltp.mix db ~seed:99L ~n:25)

let test_oltp_trace_legal () =
  let pl = Lazy.force pl in
  let txns = Stc_workload.Oltp.mix pl.Pipeline.db_btree ~seed:5L ~n:20 in
  let rec_ =
    Stc_workload.Oltp.record ~kernel:pl.Pipeline.kernel ~walker_seed:3L
      ~db:pl.Pipeline.db_btree ~txns
  in
  Alcotest.(check int) "marks per txn" 20 (List.length (Recorder.marks rec_));
  match
    Stc_trace.Check.check_all pl.Pipeline.program (fun f ->
        Stc_trace.Source.iter (Stc_trace.Source.of_recorder rec_) f)
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_oltp_report () =
  let pl = Lazy.force pl in
  let r = E.oltp ~train_txns:40 ~test_txns:60 pl in
  Alcotest.(check int) "four layouts" 4 (List.length r.E.oltp_rows);
  let find name = List.find (fun row -> row.E.o_layout = name) r.E.oltp_rows in
  Alcotest.(check bool) "ops beats orig on OLTP" true
    ((find "ops").E.o_ipc > (find "orig").E.o_ipc)

(* ---------- predictor ---------- *)

(* Percentage of [n] outcomes [taken i] (i = 1..n) at one branch that a
   fresh predictor of [kind] gets right. *)
let accuracy_over kind ~pc ~n taken =
  let p = Stc_fetch.Predictor.create kind in
  let correct = ref 0 in
  for i = 1 to n do
    if Stc_fetch.Predictor.predict_and_update p ~pc ~taken:(taken i) then
      incr correct
  done;
  100.0 *. float_of_int !correct /. float_of_int n

let test_predictor_learns_bias () =
  Alcotest.(check bool) "high accuracy on a fixed branch" true
    (accuracy_over (Stc_fetch.Predictor.Bimodal 64) ~pc:64 ~n:100 (fun _ ->
         true)
    > 95.0)

let test_predictor_alternating_gshare () =
  (* gshare learns an alternating pattern through its history *)
  let alternating i = i mod 2 = 0 in
  Alcotest.(check bool) "gshare learns alternation" true
    (accuracy_over (Stc_fetch.Predictor.Gshare (1024, 4)) ~pc:128 ~n:2000
       alternating
    > 90.0);
  Alcotest.(check bool) "bimodal cannot" true
    (accuracy_over (Stc_fetch.Predictor.Bimodal 1024) ~pc:128 ~n:2000
       alternating
    < 60.0)

let test_prediction_penalty_reduces_ipc () =
  let pl = Lazy.force pl in
  let rows = E.prediction ~cache_kb:16 ~cfa_kb:4 pl in
  let perfect =
    List.find (fun r -> r.E.p_layout = "orig" && r.E.p_predictor = "perfect") rows
  in
  List.iter
    (fun r ->
      if r.E.p_layout = "orig" && r.E.p_predictor <> "perfect" then begin
        Alcotest.(check bool) "imperfect is slower" true
          (r.E.p_ipc <= perfect.E.p_ipc);
        Alcotest.(check bool) "accuracy below 100" true (r.E.p_accuracy < 100.0)
      end)
    rows

(* The accuracy a prediction row reports is derived from the engine
   result, which a store can hold; it must be exactly the share of the
   view's conditional branches that a fresh predictor of the same kind
   gets right when walked over them in trace order. *)
let test_accuracy_from_result () =
  let pl = Lazy.force pl in
  let layout = L.Original.layout pl.Pipeline.program in
  let rows = E.prediction ~cache_kb:16 ~cfa_kb:4 pl in
  List.iter
    (fun (name, kind) ->
      let v =
        Stc_fetch.View.create pl.Pipeline.program layout
          (Pipeline.test_source pl)
      in
      let pred = Stc_fetch.Predictor.create kind in
      let conds = ref 0 and correct = ref 0 in
      for i = 0 to Stc_fetch.View.length v - 1 do
        if Stc_fetch.View.is_cond v i then begin
          incr conds;
          let pc =
            Stc_fetch.View.block_addr v i
            + ((Stc_fetch.View.block_size v i - 1) * Stc_cfg.Block.instr_bytes)
          in
          if
            Stc_fetch.Predictor.predict_and_update pred ~pc
              ~taken:(Stc_fetch.View.taken v i)
          then incr correct
        end
      done;
      let row =
        List.find
          (fun r -> r.E.p_layout = "orig" && r.E.p_predictor = name)
          rows
      in
      Alcotest.(check (float 0.0))
        (name ^ " accuracy from result")
        (100.0 *. float_of_int !correct /. float_of_int !conds)
        row.E.p_accuracy)
    Stc_fetch.Predictor.
      [
        ("always-taken", Always_taken);
        ("bimodal-2K", Bimodal 2048);
        ("gshare-4K/8", Gshare (4096, 8));
      ]

let with_store f =
  Test_store.with_dir (fun dir ->
      f (Stc_core.Run.with_store dir Stc_core.Run.default))

let test_prediction_warm_store () =
  let pl = Lazy.force pl in
  let plain = E.prediction ~cache_kb:16 ~cfa_kb:4 pl in
  with_store (fun ctx ->
      let cold = E.prediction ~ctx ~cache_kb:16 ~cfa_kb:4 pl in
      let warm = E.prediction ~ctx ~cache_kb:16 ~cfa_kb:4 pl in
      Alcotest.(check bool) "cold store = no store" true (cold = plain);
      Alcotest.(check bool) "warm store = cold store" true (warm = cold))

(* The OLTP layouts are trained on the OLTP mix; a store already holding
   the DSS layouts at the same algorithm and geometry must not serve
   them. *)
let test_oltp_after_simulate_store () =
  let pl = Lazy.force pl in
  let plain = E.oltp ~train_txns:40 ~test_txns:60 pl in
  with_store (fun ctx ->
      ignore
        (Stc_core.Experiments.simulate ~ctx
           ~config:
             {
               Stc_core.Experiments.default_sim_config with
               Stc_core.Experiments.grid = [ (16, [ 4 ]) ];
             }
           ~layouts:[ "auto"; "ops" ] pl);
      let stored = E.oltp ~ctx ~train_txns:40 ~test_txns:60 pl in
      Alcotest.(check bool) "oltp rows unchanged by a DSS-filled store" true
        (stored.E.oltp_rows = plain.E.oltp_rows))

(* ---------- tuner ---------- *)

let test_tuner_beats_or_matches_origin () =
  let pl = Lazy.force pl in
  let outcome = Stc_core.Tuner.tune ~cache_kb:16 pl in
  Alcotest.(check bool) "evaluated all" true (outcome.Stc_core.Tuner.evaluated = 36);
  (* the tuned layout must beat the original layout on the test trace *)
  let layout =
    Stc_core.Tuner.layout_of pl ~cache_kb:16 outcome.Stc_core.Tuner.chosen
  in
  let run l =
    let view =
      Stc_fetch.View.create pl.Pipeline.program l (Pipeline.test_source pl)
    in
    let icache = Stc_cachesim.Icache.create ~size_bytes:16384 () in
    Stc_fetch.Engine.bandwidth
      (Stc_fetch.Engine.run ~icache view)
  in
  Alcotest.(check bool) "tuned beats original on Test" true
    (run layout > run (L.Original.layout pl.Pipeline.program))

let suite =
  [
    Alcotest.test_case "inlined program valid" `Quick test_inline_program_valid;
    Alcotest.test_case "inlining finds sites" `Quick test_inline_finds_sites;
    Alcotest.test_case "remapped trace is a legal walk" `Quick
      test_inline_remap_is_legal_walk;
    Alcotest.test_case "remap preserves instructions" `Quick
      test_inline_preserves_instr_count_modulo_calls;
    Alcotest.test_case "inlining helps the original layout" `Slow
      test_inline_improves_original_layout;
    Alcotest.test_case "oltp plans vs oracle" `Quick test_oltp_plans_match_oracle;
    Alcotest.test_case "oltp trace legal" `Quick test_oltp_trace_legal;
    Alcotest.test_case "oltp report" `Slow test_oltp_report;
    Alcotest.test_case "predictor learns bias" `Quick test_predictor_learns_bias;
    Alcotest.test_case "gshare vs bimodal" `Quick test_predictor_alternating_gshare;
    Alcotest.test_case "prediction penalty reduces IPC" `Slow
      test_prediction_penalty_reduces_ipc;
    Alcotest.test_case "accuracy derived from the result" `Quick
      test_accuracy_from_result;
    Alcotest.test_case "prediction rows warm = cold" `Slow
      test_prediction_warm_store;
    Alcotest.test_case "oltp rows after a simulate-filled store" `Slow
      test_oltp_after_simulate_store;
    Alcotest.test_case "tuner beats original" `Slow test_tuner_beats_or_matches_origin;
  ]
