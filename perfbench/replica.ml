(* The traced per-layer run.

   The bench calls each layer's public function itself, in the order
   Pipeline.run and Experiments.simulate / Experiments.extended call
   them, timing every call from outside and wrapping it in a
   Stc_obs.Trace span named as the program names it (kernel-build,
   datagen, db-load, record-*, build-profile, layout-<slug>, plus
   packed-compile, which the program does not trace). Engine.Bank emits
   its own engine.fused_packed and engine.fused slices and the artifact
   store its store.* slices, so tools/trace_report prints the same
   breakdown from the written trace as the metrics below.

   After the replica come four probes that no grid runs as such: the
   streamed counterpart of the largest fused group, a solo-slot
   feature-cost table, an artifact-store round trip, and a cold build of
   every layout algorithm on the quick kernel. Each sits under one
   top-level bench.* span. *)

module Pipeline = Stc_core.Pipeline
module Run = Stc_core.Run
module L = Stc_layout
module F = Stc_fetch
module Icache = Stc_cachesim.Icache
module Trace = Stc_obs.Trace

type metric = string * float * string

(* Counts in millions: Mblocks, MB. *)
let mega n = float_of_int n /. 1e6

(* Time [f] from outside and record it as a top-level span [name]. *)
let timed tr name f = Stats.time (fun () -> Trace.span tr name f)

(* ---------- Pipeline.run, layer by layer ---------- *)

type setup = {
  pl : Pipeline.t;
  synth_s : float;
  datagen_s : float;
  db_load_s : float;
  record_s : float;
  profile_s : float;
}

let pipeline tr (config : Pipeline.config) =
  let kernel, synth_s =
    timed tr "kernel-build" (fun () ->
        Stc_synth.Kernel.build ~config:config.Pipeline.kernel ())
  in
  let data, datagen_s =
    timed tr "datagen" (fun () ->
        Stc_dbdata.Datagen.generate ~seed:config.Pipeline.data_seed
          ~sf:config.Pipeline.sf ())
  in
  let load kind =
    timed tr "db-load" (fun () ->
        Stc_db.Database.load ~frames:config.Pipeline.frames data ~kind)
  in
  let db_btree, load_b = load Stc_db.Database.Btree_db in
  let db_hash, load_h = load Stc_db.Database.Hash_db in
  let record which ~walker_seed ~dbs ~queries =
    timed tr ("record-" ^ which) (fun () ->
        Stc_workload.Driver.record ~kernel ~walker_seed ~dbs ~queries ())
  in
  let training, rec_train =
    record "training" ~walker_seed:config.Pipeline.walker_seed
      ~dbs:[ ("btree", db_btree) ]
      ~queries:Stc_workload.Queries.training_set
  in
  let test, rec_test =
    record "test"
      ~walker_seed:(Int64.add config.Pipeline.walker_seed 1L)
      ~dbs:[ ("btree", db_btree); ("hash", db_hash) ]
      ~queries:Stc_workload.Queries.test_set
  in
  let program = kernel.Stc_synth.Kernel.program in
  let profile = Stc_profile.Profile.create program in
  let (), profile_s =
    timed tr "build-profile" (fun () ->
        Stc_trace.Source.iter
          (Stc_trace.Source.of_recorder training)
          (Stc_profile.Profile.sink profile))
  in
  {
    pl =
      {
        Pipeline.config;
        kernel;
        program;
        db_btree;
        db_hash;
        training;
        test;
        profile;
      };
    synth_s;
    datagen_s;
    db_load_s = load_b +. load_h;
    record_s = rec_train +. rec_test;
    profile_s;
  }

(* ---------- the grid, group by group ---------- *)

type group_run = {
  idxs : int array;
  results : F.Engine.result array;
  compile_s : float;
  replay_s : float;
  words : int;
}

type grid_run = {
  cells : Cells.cell array;
  rows : Stc_core.Experiments.row array;
  groups : group_run array;
  plan_s : float;
  map_s : float;
  builds : int;
  temperature_s : float;
  pool_wall : float;
  pool : Stc_par.Pool.stats;
}

let grid tr (w : Workload.t) (pl : Pipeline.t) =
  let plan_s = ref 0.0 and map_s = ref 0.0 and builds = ref 0 in
  let build profile algo params =
    Trace.span tr ("layout-" ^ algo.L.Algo.slug) (fun () ->
        let plan, dp =
          Stats.time (fun () -> L.Algo.plan algo profile params)
        in
        let layout, dm =
          Stats.time (fun () ->
              L.Mapping.map_plan
                (Stc_profile.Profile.program profile)
                ~name:algo.L.Algo.name ~cache_bytes:params.L.Algo.cache_bytes
                ~cfa_bytes:(L.Algo.effective_cfa_bytes algo params)
                plan)
        in
        plan_s := !plan_s +. dp;
        map_s := !map_s +. dm;
        incr builds;
        layout)
  in
  let temperature_s = ref 0.0 in
  let temps = Cells.temperature_of pl in
  let temperature layout =
    let t, dt = timed tr "cachesim.temperature" (fun () -> temps layout) in
    temperature_s := !temperature_s +. dt;
    t
  in
  let cells =
    Cells.plan ~build ~temperature w.Workload.grid ~layouts:w.Workload.layouts
      pl
  in
  let bank_ctx = Run.with_trace tr Run.default in
  let run_group (layout, idxs) =
    let packed, compile_s =
      timed tr "packed-compile" (fun () ->
          F.Packed.compile pl.Pipeline.program layout (Pipeline.test_source pl))
    in
    let results, replay_s =
      Stats.time (fun () ->
          F.Engine.Bank.run_packed ~ctx:bank_ctx
            (Array.map (fun i -> Cells.spec cells.(i)) idxs)
            packed)
    in
    { idxs; results; compile_s; replay_s; words = F.Packed.memory_words packed }
  in
  let (groups, pool), pool_wall =
    Stats.time (fun () ->
        Stc_par.Pool.with_pool ~domains:w.Workload.jobs (fun pool ->
            let out =
              Stc_par.Pool.map ~chunk:1 pool run_group (Cells.groups cells)
            in
            (out, Stc_par.Pool.stats pool)))
  in
  let rows = Array.make (Array.length cells) None in
  Array.iter
    (fun g ->
      Array.iteri
        (fun k i -> rows.(i) <- Some (Cells.row cells.(i) g.results.(k)))
        g.idxs)
    groups;
  {
    cells;
    rows = Array.map Option.get rows;
    groups;
    plan_s = !plan_s;
    map_s = !map_s;
    builds = !builds;
    temperature_s = !temperature_s;
    pool_wall;
    pool;
  }

(* ---------- probes ---------- *)

(* The largest fused group once more, packed (compile + sweep) and then
   streamed through one bounded window; the results must agree. *)
let stream_probe (pl : Pipeline.t) g =
  let largest =
    Array.fold_left
      (fun best gr ->
        if Array.length gr.idxs > Array.length best.idxs then gr else best)
      g.groups.(0) g.groups
  in
  let layout = g.cells.(largest.idxs.(0)).Cells.layout in
  let specs () = Array.map (fun i -> Cells.spec g.cells.(i)) largest.idxs in
  let packed_rs, packed_s =
    Stats.time (fun () ->
        F.Engine.Bank.run_packed (specs ())
          (F.Packed.compile pl.Pipeline.program layout
             (Pipeline.test_source pl)))
  in
  let stream_rs, stream_s =
    Stats.time (fun () ->
        F.Engine.Bank.run_stream (specs ())
          (F.Stream.create
             (F.Packed.tables pl.Pipeline.program layout)
             (Pipeline.test_source pl)))
  in
  let slot_blocks =
    Array.length largest.idxs * Stc_trace.Recorder.length pl.Pipeline.test
  in
  ( stream_rs = packed_rs && stream_rs = largest.results,
    [
      ( "fetch.stream.mblocks_per_s",
        mega slot_blocks /. stream_s,
        "Mblocks/s" );
      ("fetch.stream.vs_packed", packed_s /. stream_s, "ratio");
    ] )

(* Replay rate of one slot alone over the orig layout at 16 KB: the cost
   of each hardware feature the grids combine. Median of three sweeps.
   Also returns the time to derive orig's TRRIP temperatures. *)
let feature_costs (pl : Pipeline.t) =
  let orig =
    L.Algo.layout (Cells.algo_exn "orig") pl.Pipeline.profile
      Cells.baseline_params
  in
  let packed =
    F.Packed.compile pl.Pipeline.program orig (Pipeline.test_source pl)
  in
  let temps, temperature_s =
    Stats.time (fun () -> Cells.temperature_of pl orig)
  in
  let spec ?fdip ?assoc ?victim_lines ?policy ?(icache = true) ?trace_cache
      () =
    F.Engine.Bank.spec
      ~config:(Cells.engine_config ?fdip ())
      ?icache:
        (if icache then
           Some
             (Icache.create ?assoc ?victim_lines ?policy ~size_bytes:(16 * 1024)
                ())
         else None)
      ?trace_cache ()
  in
  let slots =
    [
      ("ideal", fun () -> spec ~icache:false ());
      ("direct", fun () -> spec ());
      ("victim", fun () -> spec ~victim_lines:16 ());
      ("2way", fun () -> spec ~assoc:2 ());
      ( "tc",
        fun () ->
          spec
            ~trace_cache:
              (F.Tracecache.create
                 ~entries:Cells.sc.Stc_core.Experiments.tc_entries ())
            () );
      ("srrip", fun () -> spec ~assoc:4 ~policy:Icache.Srrip ());
      ("trrip", fun () -> spec ~assoc:4 ~policy:(Icache.Trrip temps) ());
      ("fdip", fun () -> spec ~assoc:4 ~fdip:F.Fdip.default ());
    ]
  in
  let rate mk =
    let sweep () =
      snd (Stats.time (fun () -> F.Engine.Bank.run_packed [| mk () |] packed))
    in
    mega (F.Packed.length packed)
    /. Stats.median (List.init 3 (fun _ -> sweep ()))
  in
  ( temperature_s,
    List.map
      (fun (name, mk) ->
        ( Printf.sprintf "fetch.slot.%s.mblocks_per_s" name,
          rate mk,
          "Mblocks/s" ))
      slots )

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Save the test trace (chunked) and every cell result under the bench's
   own keys in a fresh store, then load them all back. *)
let store_probe tr ~dir (pl : Pipeline.t) g =
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let st = Stc_store.open_ ~trace:tr dir in
  let key parts = Stc_store.Key.of_parts ("perfbench" :: parts) in
  let trace_key = key [ "test-trace" ] in
  let cell_key i = key [ "cell"; string_of_int i ] in
  let results =
    Array.concat (Array.to_list (Array.map (fun gr -> gr.results) g.groups))
  in
  let (), write_s =
    Stats.time (fun () ->
        Stc_store.Chunked.save st ~key:trace_key pl.Pipeline.test;
        Array.iteri
          (fun i r -> Stc_store.Result.save st ~key:(cell_key i) r)
          results)
  in
  let before = Stc_store.stats st in
  let (trace, loaded), read_s =
    Stats.time (fun () ->
        ( Stc_store.Chunked.load st ~key:trace_key,
          Array.mapi
            (fun i _ -> Stc_store.Result.load st ~key:(cell_key i))
            results ))
  in
  let after = Stc_store.stats st in
  let hits = after.Stc_store.hits - before.Stc_store.hits in
  let lookups = hits + after.misses - before.misses in
  let mb_read = mega (after.bytes_read - before.bytes_read) in
  let intact =
    (match trace with
    | Some t ->
      Stc_trace.Recorder.hash t = Stc_trace.Recorder.hash pl.Pipeline.test
    | None -> false)
    && Array.for_all2 (fun l r -> l = Some r) loaded results
  in
  ( intact,
    [
      ("store.write_s", write_s, "s");
      ("store.mb_written", mega after.bytes_written, "MB");
      ("store.read_s", read_s, "s");
      ("store.mb_read", mb_read, "MB");
      ("store.read_mb_per_s", mb_read /. read_s, "MB/s");
      ("store.hit_ratio", float_of_int hits /. float_of_int lookups, "ratio");
    ] )

(* Cold plan + map time of every registered algorithm at the 16 KB /
   4 KB check geometry, on a fresh quick-kernel pipeline of this seed (a
   fresh profile, so the memoizing algorithms pay their first build).
   ExtTSP takes ~100 s on the default kernel, so every workload reports
   the algorithms on the quick kernel. *)
let layout_probe ~seed =
  let pl = Pipeline.run ~config:(Workload.inputs Workload.quick ~seed) () in
  let params = Cells.stc_params ~cache_kb:16 ~cfa_kb:4 in
  List.map
    (fun algo ->
      let _, s =
        Stats.time (fun () -> L.Algo.layout algo pl.Pipeline.profile params)
      in
      (Printf.sprintf "layout.%s.s" algo.L.Algo.slug, s, "s"))
    (L.Algo.all ())

(* ---------- the whole traced run ---------- *)

type outcome = {
  metrics : metric list;
  rows : Stc_core.Experiments.row array;
  test_hash : int64;
  probes_ok : (string * bool) list;
}

let run tr ~scratch (w : Workload.t) ~seed ~untraced_s =
  Gc.compact ();
  let (s, g), wall =
    Stats.time (fun () ->
        let s = pipeline tr (Workload.inputs w.Workload.config ~seed) in
        (s, grid tr w s.pl))
  in
  let pl = s.pl in
  let stream_ok, stream =
    Trace.span tr "bench.stream" (fun () -> stream_probe pl g)
  in
  let slot_temperature_s, slots =
    Trace.span tr "bench.feature-cost" (fun () -> feature_costs pl)
  in
  let store_ok, store =
    Trace.span tr "bench.store" (fun () ->
        let dir = Printf.sprintf "store-%d" (Unix.getpid ()) in
        store_probe tr ~dir:(Filename.concat scratch dir) pl g)
  in
  let layouts =
    Trace.span tr "bench.layout-probe" (fun () -> layout_probe ~seed)
  in
  let blocks = Stc_trace.Recorder.length pl.Pipeline.test in
  let train_blocks = Stc_trace.Recorder.length pl.Pipeline.training in
  let groups = Array.to_list g.groups in
  let sumg f = Stats.sum (List.map f groups) in
  let compile_s = sumg (fun gr -> gr.compile_s) in
  let replay_s = sumg (fun gr -> gr.replay_s) in
  let words = List.map (fun gr -> float_of_int gr.words) groups in
  let n_cells = Array.length g.cells and n_groups = Array.length g.groups in
  let sweep_ms = List.map (fun gr -> gr.replay_s *. 1e3) groups in
  let tail_pct, tail_ms = Stats.tail sweep_ms in
  let busy = Array.to_list g.pool.Stc_par.Pool.s_busy in
  let busy_sum = Stats.sum busy in
  let busy_mean = busy_sum /. float_of_int (List.length busy) in
  let layers =
    s.synth_s +. s.datagen_s +. s.db_load_s +. s.record_s +. s.profile_s
    +. g.plan_s +. g.map_s +. g.temperature_s +. compile_s +. replay_s
  in
  let metrics =
    [
      ("synth.build_s", s.synth_s, "s");
      ("dbdata.generate_s", s.datagen_s, "s");
      ("db.load_s", s.db_load_s, "s");
      ("workload.record_s", s.record_s, "s");
      ( "workload.record_mblocks_per_s",
        mega (blocks + train_blocks) /. s.record_s,
        "Mblocks/s" );
      ("profile.build_s", s.profile_s, "s");
      ( "profile.mblocks_per_s",
        mega train_blocks /. s.profile_s,
        "Mblocks/s" );
      ("trace.test_mblocks", mega blocks, "Mblocks");
    ]
    @ layouts
    @ [
        ("layout.grid_s", g.plan_s +. g.map_s, "s");
        ("layout.map_s", g.map_s, "s");
        ("layout.builds", float_of_int g.builds, "count");
        ("cachesim.temperature_s", g.temperature_s +. slot_temperature_s, "s");
        ("fetch.packed.compile_s", compile_s, "s");
        ( "fetch.packed.mwords_per_s",
          Stats.sum words /. 1e6 /. compile_s,
          "Mwords/s" );
        ( "fetch.packed.mb",
          8.0 *. List.fold_left Float.max 0.0 words /. 1e6,
          "MB" );
        ("fetch.bank.replay_s", replay_s, "s");
        ("fetch.bank.sweeps", float_of_int n_groups, "count");
        ( "fetch.bank.cells_per_sweep",
          float_of_int n_cells /. float_of_int n_groups,
          "cells" );
        ( "fetch.bank.slot_mblocks_per_s",
          mega (n_cells * blocks) /. replay_s,
          "Mblocks/s" );
        ("fetch.bank.sweep_ms_p50", Stats.median sweep_ms, "ms");
        ("fetch.bank.sweep_ms_tail", tail_ms, "ms");
        ("fetch.bank.sweep_tail_pct", tail_pct, "%");
      ]
    @ slots @ stream @ store
    @ [
        ("par.busy_ratio", busy_mean /. g.pool.Stc_par.Pool.s_wall, "ratio");
        ( "par.imbalance",
          List.fold_left Float.max 0.0 busy /. busy_mean,
          "ratio" );
        ("obs.trace_overhead", wall /. untraced_s, "ratio");
        (* share of the replica's busy time (serial prefix plus every
           pool slot) spent inside a timed layer call *)
        ( "bench.coverage",
          layers /. (wall -. g.pool_wall +. busy_sum),
          "ratio" );
      ]
  in
  {
    metrics;
    rows = g.rows;
    test_hash = Stc_trace.Recorder.hash pl.Pipeline.test;
    probes_ok =
      [ ("streamed replay", stream_ok); ("store round trip", store_ok) ];
  }
