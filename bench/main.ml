(* Benchmark harness.

   Running with no arguments regenerates every table and figure of the
   paper over one pipeline instance (the trace-driven experiments of
   Sections 4 and 7) and then times the computational kernels behind each
   table with Bechamel (one Test.make cluster per table).

   Arguments:
     table1 | figure2 | reuse | table2 | figure3 | table3 | table4
       | ablation | extensions | fetch | stream | micro
       — run a single part
     --quick                   — reduced kernel and scale factor
     --scale SF                — override the TPC-D scale factor
     --seed N                  — master seed (Pipeline.seeded derivation)
     --jobs N                  — domains for the simulation grid; with
                                 N > 1 the grid is also timed serially
                                 and the speedup reported
     --metrics FILE            — export run metrics as JSONL to FILE
     --trace FILE              — record per-domain timeline events and
                                 write Chrome trace_event JSON to FILE
                                 (Perfetto / tools/trace_report)
     --progress                — rate/ETA progress lines on stderr
     --store DIR               — artifact store for the pipeline and the
                                 simulation grids (see Stc_store)

   The [fetch] part is the fetch-replay microbench: it times a slice of
   simulation cells through Engine.run_packed (a bank of one per cell,
   plus a --jobs N parallel replay that must reproduce the serial
   results), prints blocks/sec and writes the numbers to
   BENCH_fetch.json with a "provenance" record (Meta.provenance: git
   commit, OCaml version, hostname, jobs) so perf numbers stay
   attributable.

   The [stream] part is the segment-pipeline macrobench: it replays the
   same cell slice through Engine.Bank.run_stream, one bank of one per
   cell (bounded off-heap segments, Source -> Stream -> engine),
   serially and on a --jobs domain pool, asserts the results identical
   to the materialized packed replay, and appends a provenance-stamped
   record to BENCH_fetch.json (one JSON object per line).

   Whole-grid replay, the artifact store and layout construction are
   timed by the repository benchmark (perfbench/, see its README). *)

module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module L = Stc_layout
module F = Stc_fetch
module P = Stc_profile

let parse_args () =
  let quick = ref false
  and scale = ref None
  and seed = ref None
  and jobs = ref (max 1 (Domain.recommended_domain_count () - 1))
  and metrics = ref None
  and trace = ref None
  and progress = ref false
  and store = ref None
  and parts = ref [] in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--scale" :: v :: rest ->
      scale := Some (float_of_string v);
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_of_string v);
      go rest
    | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      go rest
    | "--metrics" :: v :: rest ->
      metrics := Some v;
      go rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      go rest
    | "--progress" :: rest ->
      progress := true;
      go rest
    | "--store" :: v :: rest ->
      store := Some v;
      go rest
    | part :: rest ->
      parts := part :: !parts;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  ( !quick,
    !scale,
    !seed,
    !jobs,
    !metrics,
    !trace,
    !progress,
    !store,
    List.rev !parts )

let ( quick,
      scale,
      seed,
      jobs,
      metrics_file,
      trace_file,
      progress,
      store,
      parts ) =
  parse_args ()

(* Fail on unwritable --metrics/--trace paths before the run. *)
let () =
  List.iter
    (fun (what, file) ->
      match file with
      | None -> ()
      | Some path -> (
        try close_out (open_out path)
        with Sys_error e ->
          Printf.eprintf "bench: cannot write %s file: %s\n" what e;
          exit 1))
    [ ("metrics", metrics_file); ("trace", trace_file) ]

let wants part = parts = [] || List.mem part parts

let registry = Stc_obs.Registry.create ()

(* Only built when --trace was given: an absent tracer is one branch per
   instrumentation site, so untraced bench numbers stay untouched. *)
let tracer =
  match trace_file with Some _ -> Some (Stc_obs.Trace.create ()) | None -> None

module Run = Stc_core.Run

let ctx =
  let c =
    Run.default |> Run.with_metrics registry |> Run.with_progress progress
    |> Run.with_jobs jobs
  in
  let c = match seed with Some s -> Run.with_seed s c | None -> c in
  let c = match store with Some dir -> Run.with_store dir c | None -> c in
  match tracer with Some t -> Run.with_trace t c | None -> c

let pipeline =
  lazy
    (let config =
       if quick then Pipeline.quick_config else Pipeline.default_config
     in
     let config =
       match scale with Some sf -> { config with Pipeline.sf } | None -> config
     in
     Printf.printf "[setup] building kernel and traces (sf=%.4g)...\n%!"
       config.Pipeline.sf;
     let t0 = Unix.gettimeofday () in
     let pl = Pipeline.run ~ctx ~config () in
     Printf.printf "[setup] done in %.1fs (test trace: %d blocks)\n\n%!"
       (Unix.gettimeofday () -. t0)
       (Stc_trace.Recorder.length pl.Pipeline.test);
     pl)

let section title = Printf.printf "==== %s ====\n%!" title

(* ---------- Figure 3: the trace-building worked example ---------- *)

let print_figure3 () =
  section "Figure 3 (trace building example)";
  let prog, profile, seeds = Stc_core.Figure3.graph () in
  ignore prog;
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 4; branch_threshold = 0.4 }
      ~seeds
  in
  List.iteri
    (fun i seq ->
      Printf.printf "  %s trace: %s\n"
        (if i = 0 then "Main     " else "Secondary")
        (String.concat " -> " (List.map (Stc_core.Figure3.label) seq)))
    seqs

(* ---------- table reproductions ---------- *)

let run_tables () =
  let pl = lazy (Lazy.force pipeline) in
  let pl () = Lazy.force pl in
  if wants "table1" then begin
    section "Table 1";
    E.print_table1 (E.table1 (pl ()));
    print_newline ()
  end;
  if wants "figure2" then begin
    section "Figure 2";
    E.print_figure2 (pl ());
    print_newline ()
  end;
  if wants "reuse" then begin
    section "Reuse (Section 4.1)";
    E.print_reuse (E.reuse (pl ()));
    print_newline ()
  end;
  if wants "table2" then begin
    section "Table 2";
    E.print_table2 (E.table2 (pl ()));
    print_newline ()
  end;
  if wants "figure3" then begin
    print_figure3 ();
    print_newline ()
  end;
  if wants "table3" || wants "table4" then begin
    section "Tables 3 and 4 (trace-driven simulation)";
    let p = pl () in
    let rows =
      if ctx.Run.jobs <= 1 then begin
        let t0 = Unix.gettimeofday () in
        let rows = E.simulate ~ctx p in
        Printf.printf "(%d simulations in %.1fs, 1 job)\n\n%!"
          (List.length rows)
          (Unix.gettimeofday () -. t0);
        rows
      end
      else begin
        (* serial baseline without metrics, then the recorded parallel run:
           same cells, so the wall-clock ratio is the pool speedup *)
        let t0 = Unix.gettimeofday () in
        let baseline = E.simulate ~ctx:{ ctx with Run.metrics = None; jobs = 1 } p in
        let t_serial = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        let rows = E.simulate ~ctx p in
        let t_par = Unix.gettimeofday () -. t1 in
        Printf.printf
          "(%d simulations: %.1fs serial, %.1fs on %d jobs -> %.2fx speedup; \
           rows %s)\n\n%!"
          (List.length rows) t_serial t_par ctx.Run.jobs (t_serial /. t_par)
          (if rows = baseline then "identical" else "DIFFER (BUG)");
        rows
      end
    in
    if wants "table3" then begin
      E.print_table3 rows;
      print_newline ()
    end;
    if wants "table4" then begin
      E.print_table4 rows;
      print_newline ();
      E.print_sequentiality rows;
      print_newline ()
    end
  end;
  if wants "ablation" && parts <> [] then begin
    section "Ablation";
    E.print_ablation (E.ablation ~ctx (pl ()));
    print_newline ()
  end;
  if wants "extensions" then begin
    section "Extensions (Section 8 future work)";
    let p = pl () in
    Stc_core.Extensions.print_inlining (Stc_core.Extensions.inlining ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_oltp (Stc_core.Extensions.oltp ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_prediction
      (Stc_core.Extensions.prediction ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_tuning ~ctx p;
    print_newline ();
    Stc_core.Extensions.print_per_query (Stc_core.Extensions.per_query ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_fetch_units
      (Stc_core.Extensions.fetch_units ~ctx p);
    print_newline ();
    Stc_core.Extensions.print_associativity
      (Stc_core.Extensions.associativity ~ctx p);
    print_newline ()
  end

(* ---------- fetch-replay microbench ---------- *)

module J = Stc_obs.Json

(* The representative Table 3/4 slice the [fetch] and [stream] parts
   replay: two layouts x {ideal, direct 16KB, direct 16KB + TC}. *)
let bench_slice pl =
  let prog = pl.Pipeline.program in
  let profile = pl.Pipeline.profile in
  let params =
    L.Stc.params ~exec_threshold:20 ~branch_threshold:0.3 ~cache_bytes:16384
      ~cfa_bytes:4096 ()
  in
  let layouts =
    [
      ("orig", L.Original.layout prog);
      ( "ops",
        L.Stc.layout profile ~name:"ops" ~params
          ~seeds:(L.Stc.ops_seeds profile) );
    ]
  in
  let variants =
    [
      ("ideal", fun () -> (None, None));
      ( "direct-16k",
        fun () -> (Some (Stc_cachesim.Icache.create ~size_bytes:16384 ()), None)
      );
      ( "tc-16k",
        fun () ->
          ( Some (Stc_cachesim.Icache.create ~size_bytes:16384 ()),
            Some (F.Tracecache.create ()) ) );
    ]
  in
  let cells =
    List.concat_map
      (fun (_lname, layout) -> List.map (fun (_v, mk) -> (layout, mk)) variants)
      layouts
  in
  (prog, layouts, variants, cells)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Replays the test trace through the bench slice, serially and (with
   --jobs N > 1) on a domain pool, asserts the two result lists
   identical, and records the throughput in BENCH_fetch.json. The serial
   wall clock includes compiling both layouts: the honest end-to-end cost
   of a replay. *)
let fetch_bench () =
  section "Fetch replay (packed engine)";
  let pl = Lazy.force pipeline in
  let trace = pl.Pipeline.test in
  let blocks = Stc_trace.Recorder.length trace in
  let prog, layouts, variants, cells = bench_slice pl in
  let n_cells = List.length cells in
  let total_blocks = n_cells * blocks in
  let bps wall = float_of_int total_blocks /. wall in
  let replay ?ctx compiled (layout, mk) =
    let icache, tc = mk () in
    F.Engine.run_packed ?ctx ?icache ?trace_cache:tc
      (List.assq layout compiled)
  in
  Printf.printf "  %d cells (%d layouts x %d variants), %d blocks each\n%!"
    n_cells (List.length layouts) (List.length variants) blocks;
  let (compiled, packed_rs), packed_wall =
    time (fun () ->
        let compiled =
          List.map
            (fun (_n, layout) ->
              ( layout,
                F.Packed.compile prog layout
                  (Stc_trace.Source.of_recorder trace) ))
            layouts
        in
        (compiled, List.map (replay ~ctx compiled) cells))
  in
  Printf.printf "  packed: %6.2fs  %11.0f blocks/s\n%!" packed_wall
    (bps packed_wall);
  let base =
    [
      ("mode", J.Str "packed");
      ("cells", J.Int n_cells);
      ("blocks", J.Int total_blocks);
    ]
  in
  let fields =
    if jobs > 1 then begin
      let par_rs, par_wall =
        time (fun () ->
            Stc_par.Pool.with_pool ~domains:jobs ?trace:tracer @@ fun pool ->
            Array.to_list
              (Stc_par.Pool.map ~chunk:1 pool (replay compiled)
                 (Array.of_list cells)))
      in
      Printf.printf
        "  packed --jobs %d: %6.2fs  %11.0f blocks/s  (results %s)\n%!" jobs
        par_wall (bps par_wall)
        (if par_rs = packed_rs then "identical" else "DIFFER (BUG)");
      if par_rs <> packed_rs then begin
        Printf.eprintf "bench fetch: parallel results differ from serial\n";
        exit 1
      end;
      base
      @ [
          ("blocks_per_sec", J.Float (bps par_wall));
          ("jobs", J.Int jobs);
          ("wall_s", J.Float par_wall);
          ("serial_blocks_per_sec", J.Float (bps packed_wall));
          ("serial_wall_s", J.Float packed_wall);
        ]
    end
    else
      base
      @ [
          ("blocks_per_sec", J.Float (bps packed_wall));
          ("jobs", J.Int 1);
          ("wall_s", J.Float packed_wall);
        ]
  in
  let oc = open_out "BENCH_fetch.json" in
  output_string oc
    (J.to_string (J.Obj (fields @ [ ("provenance", Meta.provenance ~jobs) ])));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [fetch] BENCH_fetch.json written\n\n%!"

(* ---------- streamed-replay macrobench (segment pipeline) ---------- *)

(* Replays the bench slice through the segment pipeline
   (Source -> Stream -> Engine.Bank.run_stream, a bank of one per cell):
   once serially as the materialized packed baseline, once streamed
   serially, and once streamed on a --jobs domain pool. All three result
   lists must be identical — streaming is an evaluation strategy, not an
   approximation. Appends one provenance-stamped JSON object to
   BENCH_fetch.json (the [fetch] part writes the first line). *)
let stream_bench () =
  section "Streamed replay (segment pipeline vs packed)";
  let pl = Lazy.force pipeline in
  let trace = pl.Pipeline.test in
  let blocks = Stc_trace.Recorder.length trace in
  let prog, layouts, variants, cells = bench_slice pl in
  let n_cells = List.length cells in
  let total_blocks = n_cells * blocks in
  let bps wall = float_of_int total_blocks /. wall in
  Printf.printf "  %d cells (%d layouts x %d variants), %d blocks each\n%!"
    n_cells (List.length layouts) (List.length variants) blocks;
  (* single-domain materialized baseline: compile once per layout, then
     replay every cell from the resident packed image *)
  let (packed_rs : F.Engine.result list), packed_wall =
    time (fun () ->
        let compiled =
          List.map
            (fun (_n, layout) ->
              ( layout,
                F.Packed.compile prog layout
                  (Stc_trace.Source.of_recorder trace) ))
            layouts
        in
        List.map
          (fun (layout, mk) ->
            let icache, tc = mk () in
            F.Engine.run_packed ?icache ?trace_cache:tc
              (List.assq layout compiled))
          cells)
  in
  let tables =
    List.map (fun (_n, layout) -> (layout, F.Packed.tables prog layout)) layouts
  in
  let run_streamed_cell (layout, mk) =
    let icache, tc = mk () in
    let stream =
      F.Stream.create (List.assq layout tables)
        (Stc_trace.Source.of_recorder trace)
    in
    (F.Engine.Bank.run_stream
       [| F.Engine.Bank.spec ?icache ?trace_cache:tc () |]
       stream).(0)
  in
  let stream_rs, stream_wall =
    time (fun () -> List.map run_streamed_cell cells)
  in
  let par_rs, par_wall =
    time (fun () ->
        Stc_par.Pool.with_pool ~domains:jobs ?trace:tracer @@ fun pool ->
        Array.to_list
          (Stc_par.Pool.map ~chunk:1 pool run_streamed_cell
             (Array.of_list cells)))
  in
  Printf.printf "  packed (1 domain) : %6.2fs  %11.0f blocks/s\n%!" packed_wall
    (bps packed_wall);
  Printf.printf "  stream (1 domain) : %6.2fs  %11.0f blocks/s  (results %s)\n%!"
    stream_wall (bps stream_wall)
    (if stream_rs = packed_rs then "identical" else "DIFFER (BUG)");
  Printf.printf
    "  stream --jobs %-3d : %6.2fs  %11.0f blocks/s  (%.2fx packed, results \
     %s)\n%!"
    jobs par_wall (bps par_wall)
    (bps par_wall /. bps packed_wall)
    (if par_rs = packed_rs then "identical" else "DIFFER (BUG)");
  if stream_rs <> packed_rs || par_rs <> packed_rs then begin
    Printf.eprintf "bench stream: streamed results differ from packed\n";
    exit 1
  end;
  let speedup = bps par_wall /. bps packed_wall in
  if jobs >= 4 && speedup < 2.0 then begin
    Printf.eprintf
      "bench stream: pooled streamed replay only %.2fx the packed baseline \
       on %d jobs (expected >= 2)\n"
      speedup jobs;
    exit 1
  end
  else if speedup < 2.0 then
    Printf.eprintf
      "bench stream: warning: %.2fx packed baseline on %d jobs (assertion \
       needs --jobs >= 4)\n"
      speedup jobs;
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644
      "BENCH_fetch.json"
  in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("mode", J.Str "stream");
            ("cells", J.Int n_cells);
            ("blocks", J.Int total_blocks);
            ("packed_blocks_per_sec", J.Float (bps packed_wall));
            ("packed_wall_s", J.Float packed_wall);
            ("stream_blocks_per_sec", J.Float (bps stream_wall));
            ("stream_wall_s", J.Float stream_wall);
            ("blocks_per_sec", J.Float (bps par_wall));
            ("jobs", J.Int jobs);
            ("wall_s", J.Float par_wall);
            ("pool_speedup_vs_packed", J.Float speedup);
            ("provenance", Meta.provenance ~jobs);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [stream] appended to BENCH_fetch.json\n\n%!"

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro () =
  section "Bechamel micro-benchmarks (kernels behind each table)";
  let open Bechamel in
  let open Toolkit in
  (* small fixed inputs so each run is a few milliseconds at most *)
  let config = { Pipeline.quick_config with Pipeline.sf = 0.0003 } in
  let pl = Pipeline.run ~config () in
  let prog = pl.Pipeline.program in
  let profile = pl.Pipeline.profile in
  let params =
    L.Stc.params ~exec_threshold:20 ~branch_threshold:0.3 ~cache_bytes:16384
      ~cfa_bytes:4096 ()
  in
  let ops_layout =
    L.Stc.layout profile ~name:"ops" ~params ~seeds:(L.Stc.ops_seeds profile)
  in
  let view = F.View.create prog ops_layout (Pipeline.test_source pl) in
  let tests =
    [
      (* Table 1 / Figure 2 / Table 2: profiling throughput *)
      Test.make ~name:"table1-2/profile-trace"
        (Staged.stage (fun () ->
             let p = P.Profile.create prog in
             Pipeline.replay_training pl (P.Profile.sink p)));
      Test.make ~name:"table2/determinism"
        (Staged.stage (fun () -> ignore (P.Determinism.compute profile)));
      (* Figure 3 / Tables 3-4 layout side: sequence building + mapping *)
      Test.make ~name:"fig3/seqbuild"
        (Staged.stage (fun () ->
             ignore
               (L.Seqbuild.build profile ~params:params.L.Stc.seq
                  ~seeds:(L.Stc.ops_seeds profile))));
      Test.make ~name:"table3-4/stc-layout"
        (Staged.stage (fun () ->
             ignore
               (L.Stc.layout profile ~name:"ops" ~params
                  ~seeds:(L.Stc.ops_seeds profile))));
      Test.make ~name:"table3-4/pettis-hansen"
        (Staged.stage (fun () ->
             match L.Algo.find "P&H" with
             | Ok a ->
               ignore
                 (L.Algo.layout a profile
                    (L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ()))
             | Error msg -> invalid_arg msg));
      (* Table 3: cache simulation throughput *)
      Test.make ~name:"table3/icache-sim"
        (Staged.stage (fun () ->
             let c = Stc_cachesim.Icache.create ~size_bytes:16384 () in
             let r = F.Engine.run ~icache:c view in
             ignore r.F.Engine.icache_misses));
      (* Table 4: fetch + trace cache simulation throughput *)
      Test.make ~name:"table4/fetch-tc-sim"
        (Staged.stage (fun () ->
             let c = Stc_cachesim.Icache.create ~size_bytes:16384 () in
             let tc = F.Tracecache.create () in
             let r = F.Engine.run ~icache:c ~trace_cache:tc view in
             ignore r.F.Engine.tc_hits));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  let grouped = Test.make_grouped ~name:"stc" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.0f ns/run" t
        | Some [] | None -> "(no estimate)"
      in
      Printf.printf "  %-28s %s\n%!" name est)
    (List.sort compare rows)

let () =
  run_tables ();
  if wants "fetch" && parts <> [] then fetch_bench ();
  if wants "stream" && parts <> [] then stream_bench ();
  if wants "micro" then micro ();
  (match metrics_file with
  | Some path ->
    Stc_obs.Export.write_file registry path;
    Printf.printf "[metrics] written to %s\n%!" path
  | None -> ());
  match (tracer, trace_file) with
  | Some t, Some path ->
    Stc_obs.Trace.write_file t path;
    Printf.printf "[trace] %d events written to %s%s\n%!"
      (Stc_obs.Trace.events t) path
      (match Stc_obs.Trace.dropped t with
      | 0 -> ""
      | d -> Printf.sprintf " (%d dropped: ring full)" d)
  | _ -> ()
