(* Fused replay: what a bank slot computes must not depend on what
   else shares the bank, nor on how the trace arrives.

   - property: over random traces and random config banks (mixed
     ideal/direct/2-way/victim/trace-cache variants, mixed engine
     configs, occasional direction prediction), a bank of N —
     Bank.run_packed over the image, Bank.run_stream over segments —
     reproduces N banks of one (one spec each): result records
     exactly, at every stride and at segment sizes down to 1 block. With
     N = 1 this is streamed replay against materialized replay;
   - Experiments: a store-warm subset (some cells cached from an
     earlier smaller grid, the rest fused in one sweep) produces the
     same rows, counters and events as a cold run;
   - content keys: two physically distinct layouts with equal address
     arrays replay in one sweep, with the rows and export of the same
     cells run as separate grids. *)

module F = Stc_fetch
module L = Stc_layout
module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Source = Stc_trace.Source
module Registry = Stc_obs.Registry
module Bank = F.Engine.Bank

(* Same random-program shape as test_stream: a linear chain whose
   replay semantics exercise every packed-word shape. *)
let random_program seed n =
  let st = Random.State.make [| seed; n |] in
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let ids =
    Array.init n (fun _ ->
        Builder.new_block b ~pid:p ~size:(1 + Random.State.int st 12))
  in
  Array.iteri
    (fun i bid ->
      let term =
        if i = n - 1 then Terminator.Ret
        else
          let next = ids.(i + 1) in
          let other = ids.(Random.State.int st n) in
          match Random.State.int st 3 with
          | 0 -> Terminator.Cond { taken = other; fallthru = next }
          | 1 -> Terminator.Jump next
          | _ -> Terminator.Fall next
      in
      Builder.set_term b bid term)
    ids;
  Builder.finish_proc b ~pid:p ~entry:ids.(0) ~blocks:ids;
  (Builder.build b, ids)

let random_trace st ids len =
  Array.init len (fun _ -> ids.(Random.State.int st (Array.length ids)))

(* One random spec; cache state is created here, so regenerating from
   the same seed yields an identical-but-fresh bank (fused and solo
   replays must never share mutable cache state). *)
let random_spec st =
  let line_bytes = if Random.State.bool st then 16 else 32 in
  let max_branches = 2 + Random.State.int st 2 in
  let miss_penalty = 1 + Random.State.int st 9 in
  let config =
    F.Engine.Config.make ~line_bytes ~max_branches ~miss_penalty ()
  in
  let icache =
    match Random.State.int st 4 with
    | 0 -> None
    | 1 ->
      Some
        (Stc_cachesim.Icache.create ~line_bytes
           ~size_bytes:(1024 lsl Random.State.int st 3)
           ())
    | 2 ->
      Some (Stc_cachesim.Icache.create ~assoc:2 ~line_bytes ~size_bytes:2048 ())
    | _ ->
      Some
        (Stc_cachesim.Icache.create ~line_bytes
           ~victim_lines:(1 + Random.State.int st 8)
           ~size_bytes:1024 ())
  in
  let trace_cache =
    match Random.State.int st 3 with
    | 0 -> None
    | 1 -> Some (F.Tracecache.create ~entries:16 ())
    | _ -> Some (F.Tracecache.create ~entries:64 ~width:8 ())
  in
  let prediction =
    if Random.State.int st 5 = 0 then
      Some
        {
          F.Engine.pred = F.Predictor.create (F.Predictor.Bimodal 256);
          redirect_penalty = 1 + Random.State.int st 4;
        }
    else None
  in
  Bank.spec ~config ?icache ?trace_cache ?prediction ()

let mk_specs seed k () =
  let st = Random.State.make [| seed; k; 77 |] in
  Array.init k (fun _ -> random_spec st)

(* N banks of one: each spec replayed alone. *)
let solo_reference seed k packed =
  let specs = mk_specs seed k () in
  Array.map (fun sp -> (Bank.run_packed [| sp |] packed).(0)) specs

let prop_fused_equals_solo =
  QCheck.Test.make
    ~name:"fused bank == per-cell replay (packed and streamed)" ~count:80
    QCheck.(triple (int_bound 10_000) (int_bound 300) (int_bound 1_000))
    (fun (seed, len, aux) ->
      let st = Random.State.make [| seed; aux |] in
      let prog, ids = random_program seed (2 + Random.State.int st 40) in
      let trace = random_trace st ids len in
      let layout = L.Original.layout prog in
      let k = 1 + Random.State.int st 7 in
      let packed = F.Packed.compile prog layout (Source.of_array trace) in
      let solo = solo_reference seed k packed in
      let stride_words = [| 1; 7; 64; 16384 |].(Random.State.int st 4) in
      let fspecs = mk_specs seed k () in
      let fused = Bank.run_packed ~stride_words fspecs packed in
      if fused <> solo then
        QCheck.Test.fail_reportf "fused packed differs (k=%d len=%d stride=%d)"
          k len stride_words;
      (* segment sizes stressing every boundary shape: 1-block segments,
         a 1-block final segment, one segment spanning everything, and a
         random interior size *)
      List.for_all
        (fun segment_blocks ->
          let sspecs = mk_specs seed k () in
          let stream =
            F.Stream.create (F.Packed.tables prog layout)
              (Source.of_array ~segment_blocks trace)
          in
          let streamed = Bank.run_stream ~stride_words sspecs stream in
          if streamed <> solo then
            QCheck.Test.fail_reportf "fused stream differs (k=%d len=%d seg=%d)"
              k len segment_blocks
          else true)
        [ 1; max 1 (len - 1); max 1 len; len + 1; 2 + Random.State.int st 97 ])

let test_empty_bank_and_trace () =
  let prog, ids = random_program 7 5 in
  let layout = L.Original.layout prog in
  let st = Random.State.make [| 3 |] in
  let trace = random_trace st ids 500 in
  let packed = F.Packed.compile prog layout (Source.of_array trace) in
  Alcotest.(check int) "empty bank" 0 (Array.length (Bank.run_packed [||] packed));
  let empty = F.Packed.compile prog layout (Source.of_array [||]) in
  let solo = solo_reference 7 3 empty in
  let rs = Bank.run_packed (mk_specs 7 3 ()) empty in
  Alcotest.(check bool) "empty trace fused == solo" true (rs = solo)

(* The streamed bank's resident window is bounded by the segment size
   plus lookahead, not by the trace: the window compacts below the
   slowest cohort. *)
let test_fused_resident_bound () =
  let prog, ids = random_program 21 48 in
  let layout = L.Original.layout prog in
  let st = Random.State.make [| 42 |] in
  let len = 50_000 and segment_blocks = 64 in
  let trace = random_trace st ids len in
  let packed = F.Packed.compile prog layout (Source.of_array trace) in
  let solo = solo_reference 21 5 packed in
  let hwm = ref 0 in
  let specs = mk_specs 21 5 () in
  let stream =
    F.Stream.create (F.Packed.tables prog layout)
      (Source.of_array ~segment_blocks trace)
  in
  let rs = Bank.run_stream ~resident_hwm:hwm specs stream in
  Alcotest.(check bool) "bounded run fused == solo" true (rs = solo);
  Alcotest.(check bool)
    (Printf.sprintf "resident %d words bounded by segments, not trace" !hwm)
    true
    (!hwm <= (4 * segment_blocks) + 64 && !hwm < len / 10)

(* The one feed past a piece boundary: a trace of three pieces and five
   blocks replayed by a bank mixing ideal, direct-mapped, trace-cache and
   4-way SRRIP + FDIP slots, whose FDIP queue looks further ahead than
   any other slot. The image replay (copied in pieces), the stream
   packed from the recorder, and each slot run alone over a View agree
   field by field. *)
let test_one_feed_past_a_piece () =
  let prog, ids = random_program 31 400 in
  let layout = L.Original.layout prog in
  let st = Random.State.make [| 8 |] in
  let len = (3 * Source.default_segment_blocks) + 5 in
  let recorder =
    Stc_trace.Recorder.of_ids (random_trace st ids len) ~marks:[]
  in
  let specs () =
    let icache ?assoc ?policy kb =
      Stc_cachesim.Icache.create ?assoc ?policy ~size_bytes:(kb * 1024) ()
    in
    [|
      Bank.spec ();
      Bank.spec ~icache:(icache 1) ();
      Bank.spec ~icache:(icache 2) ~trace_cache:(F.Tracecache.create ()) ();
      Bank.spec
        ~config:
          (F.Engine.Config.make ~fdip:(F.Fdip.config ~ftq_depth:24 ()) ())
        ~icache:(icache ~assoc:4 ~policy:Stc_cachesim.Icache.Srrip 4)
        ();
    |]
  in
  let replay run = run (specs ()) in
  let image =
    replay (fun specs ->
        Bank.run_packed specs
          (F.Packed.compile prog layout (Source.of_recorder recorder)))
  in
  let stream =
    replay (fun specs ->
        Bank.run_stream specs
          (F.Stream.create (F.Packed.tables prog layout)
             (Source.of_recorder recorder)))
  in
  let view = F.View.create prog layout (Source.of_recorder recorder) in
  let solo =
    replay
      (Array.map (fun sp ->
           F.Engine.run ~config:sp.Bank.config ?icache:sp.Bank.icache
             ?trace_cache:sp.Bank.trace_cache ?prediction:sp.Bank.prediction
             view))
  in
  Alcotest.(check bool) "every slot's feature is exercised" true
    (solo.(1).F.Engine.icache_misses > 0
    && solo.(2).F.Engine.tc_hits > 0
    && solo.(3).F.Engine.prefetch_issued > 0);
  let agree what a b =
    Array.iteri
      (fun i (ra, rb) ->
        List.iter2
          (fun (name, x) (_, y) ->
            if x <> y then
              Alcotest.failf "%s, slot %d: %s %g <> %g" what i name x y)
          (F.Engine.result_fields ra) (F.Engine.result_fields rb))
      (Array.combine a b)
  in
  agree "image vs solo" image solo;
  agree "stream vs solo" stream solo

(* A fetch cycle allocates nothing, in any kind of slot: one bank with a
   slot of every kind replays a 200,000-block trace in under 0.01 minor
   words per block. That leaves room for the bank's set-up and results
   (about 100 words a slot) and a few words per trace piece, nothing
   per cycle. *)
let test_replay_allocates_nothing () =
  let prog, ids = random_program 17 300 in
  let layout = L.Original.layout prog in
  let len = 200_000 in
  let trace = random_trace (Random.State.make [| 4 |]) ids len in
  let icache ?assoc ?victim_lines ?policy () =
    Stc_cachesim.Icache.create ?assoc ?victim_lines ?policy ~size_bytes:1024
      ()
  in
  let trrip = Stc_cachesim.Icache.Trrip (Array.init 64 (fun i -> i mod 3)) in
  let predict kind =
    { F.Engine.pred = F.Predictor.create kind; redirect_penalty = 3 }
  in
  let specs =
    [|
      Bank.spec ();
      Bank.spec ~icache:(icache ()) ();
      Bank.spec ~icache:(icache ~assoc:2 ()) ();
      Bank.spec ~icache:(icache ~victim_lines:4 ()) ();
      Bank.spec ~trace_cache:(F.Tracecache.create ()) ();
      Bank.spec ~icache:(icache ()) ~trace_cache:(F.Tracecache.create ()) ();
      Bank.spec
        ~icache:(icache ~assoc:4 ~policy:Stc_cachesim.Icache.Srrip ())
        ();
      Bank.spec ~icache:(icache ~assoc:4 ~policy:trrip ()) ();
      Bank.spec
        ~config:(F.Engine.Config.make ~fdip:F.Fdip.default ())
        ~icache:(icache ()) ();
      Bank.spec ~icache:(icache ())
        ~prediction:(predict (F.Predictor.Bimodal 256))
        ();
      Bank.spec ~icache:(icache ())
        ~prediction:(predict (F.Predictor.Gshare (256, 6)))
        ();
    |]
  in
  let stream =
    F.Stream.create (F.Packed.tables prog layout) (Source.of_array trace)
  in
  let before = Gc.minor_words () in
  let rs = Bank.run_stream specs stream in
  let per_block = (Gc.minor_words () -. before) /. float_of_int len in
  Alcotest.(check bool) "every slot's feature is exercised" true
    (rs.(3).F.Engine.icache_victim_hits > 0
    && rs.(4).F.Engine.tc_hits > 0
    && rs.(6).F.Engine.icache_evictions > 0
    && rs.(8).F.Engine.prefetch_issued > 0
    && rs.(10).F.Engine.mispredictions > 0);
  if per_block >= 0.01 then
    Alcotest.failf "replay allocated %.3f minor words per block" per_block

(* ---------- Experiments: store-warm subset ---------- *)

let with_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stc_fused_test.%d.%d" (Unix.getpid ()) (Random.bits ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let r = f dir in
  rm_rf dir;
  r

let tiny_config = { Pipeline.quick_config with Pipeline.sf = 0.0004 }
let small_grid = { E.default_sim_config with E.grid = [ (8, [ 2 ]) ] }
let bigger_grid = { E.default_sim_config with E.grid = [ (8, [ 2; 4 ]) ] }

let non_store_counters reg =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"store." name))
    (Registry.counters reg)

let non_store_events reg =
  List.filter
    (fun (kind, _) -> not (String.starts_with ~prefix:"store." kind))
    (Registry.events reg)

let store_counter reg name =
  Option.value ~default:0 (List.assoc_opt name (Registry.counters reg))

(* Warm a subset of the grid's cells from a smaller grid sharing their
   store keys, then run the bigger grid: warm cells short-circuit out of
   their groups, the rest fuse — rows, counters and events must match a
   cold run without a store exactly. *)
let test_store_warm_subset () =
  with_dir @@ fun dir ->
  let run ?store grid =
    let reg = Registry.create () in
    let ctx = Stc_core.Run.default |> Stc_core.Run.with_metrics reg in
    let ctx =
      match store with
      | Some d -> Stc_core.Run.with_store d ctx
      | None -> ctx
    in
    let pl = Pipeline.run ~ctx ~config:tiny_config () in
    let rows = E.simulate ~ctx ~config:grid pl in
    (reg, rows)
  in
  (* cold small grid populates the store with a strict subset of the
     bigger grid's cell keys *)
  let _, small_rows = run ~store:dir small_grid in
  let warm_reg, warm_rows = run ~store:dir bigger_grid in
  Alcotest.(check bool) "some cells were warm" true
    (store_counter warm_reg "store.hits" > 0);
  Alcotest.(check bool) "some cells were cold" true
    (store_counter warm_reg "store.misses" > 0);
  (* cold reference without a store *)
  let ref_reg, ref_rows = run bigger_grid in
  Alcotest.(check bool) "rows identical" true (warm_rows = ref_rows);
  Alcotest.(check bool) "counters identical" true
    (non_store_counters warm_reg = non_store_counters ref_reg);
  Alcotest.(check bool) "events identical" true
    (non_store_events warm_reg = non_store_events ref_reg);
  (* the small grid's rows are a subset of the bigger grid's *)
  Alcotest.(check bool) "subset rows consistent" true
    (List.for_all (fun r -> List.mem r ref_rows) small_rows)

(* ---------- Experiments: content-keyed fusion ---------- *)

(* Two layout objects with equal address arrays (and different names)
   replay in one engine.fused slice, whose group label names both; the
   results and the metrics export equal those of the same cells run as
   two grids.  A layout with a different array keeps its own sweep. *)
let test_content_equal_layouts_fuse () =
  let prog, ids = random_program 5 40 in
  let st = Random.State.make [| 13 |] in
  let trace =
    Stc_trace.Recorder.of_ids (random_trace st ids 6_000) ~marks:[]
  in
  let subject = { E.program = prog; trace } in
  let orig = L.Original.layout prog in
  let twin = { L.Layout.name = "twin"; addr = Array.copy orig.L.Layout.addr } in
  let reversed =
    L.Layout.of_block_order prog ~name:"reversed"
      (Array.of_list (List.rev (Array.to_list ids)))
  in
  let cells layout =
    List.map
      (fun cache_kb -> E.cell ~table:"twins" subject ~cache_kb layout)
      [ 1; 2; 4 ]
  in
  let run grids =
    let reg = Registry.create () in
    let tr = Stc_obs.Trace.create () in
    let ctx =
      Stc_core.Run.default |> Stc_core.Run.with_metrics reg
      |> Stc_core.Run.with_trace tr
    in
    let results = List.concat_map (E.run_cells ~ctx) grids in
    let slices =
      let open Stc_obs.Json in
      List.filter_map
        (fun e ->
          match (member "name" e, member "ph" e) with
          | Some (Str name), Some (Str ("X" | "B")) -> Some name
          | _ -> None)
        (Test_obs_trace.read_back tr)
    in
    let count name = List.length (List.filter (String.equal name) slices) in
    (results, Stc_obs.Export.to_jsonl reg, count, slices)
  in
  let fused, fused_export, fused_count, slices =
    run [ cells orig @ cells twin @ cells reversed ]
  in
  let apart, apart_export, apart_count, _ =
    run [ cells orig; cells twin; cells reversed ]
  in
  Alcotest.(check int) "twins share one sweep" 2 (fused_count "engine.fused");
  Alcotest.(check int) "separate grids sweep apart" 3
    (apart_count "engine.fused");
  Alcotest.(check int) "the label names both layouts" 1
    (fused_count "fused:twins orig+twin (6 cells)");
  if not (List.mem "fused:twins reversed (3 cells)" slices) then
    Alcotest.fail "the different layout lost its own group";
  Alcotest.(check bool) "results identical" true (fused = apart);
  Alcotest.(check string) "exports identical" apart_export fused_export

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fused_equals_solo;
    Alcotest.test_case "empty bank and empty trace" `Quick
      test_empty_bank_and_trace;
    Alcotest.test_case "fused streamed residency is segment-bounded" `Quick
      test_fused_resident_bound;
    Alcotest.test_case "one feed: image, stream and solo agree past a piece"
      `Quick test_one_feed_past_a_piece;
    Alcotest.test_case "replay allocates nothing per cycle" `Quick
      test_replay_allocates_nothing;
    Alcotest.test_case "store-warm subset fuses the rest" `Slow
      test_store_warm_subset;
    Alcotest.test_case "content-equal layouts share one sweep" `Quick
      test_content_equal_layouts_fuse;
  ]
