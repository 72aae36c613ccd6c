(* Throughput harness for the nightly bench gate. Each argument names a
   part to run:

     fetch | stream            — run that part (at least one is required)
     --quick                   — reduced kernel and scale factor
     --scale SF                — override the TPC-D scale factor
     --seed N                  — master seed (Pipeline.seeded derivation)
     --jobs N                  — domains for the parallel replays
     --metrics FILE            — export run metrics as JSONL to FILE
     --trace FILE              — record per-domain timeline events and
                                 write Chrome trace_event JSON to FILE
                                 (Perfetto / tools/trace_report)
     --progress                — rate/ETA progress lines on stderr
     --store DIR               — artifact store for the pipeline (see
                                 Stc_store)

   The [fetch] part is the fetch-replay microbench: it times a slice of
   simulation cells through Engine.Bank.run_packed (a bank of one per cell,
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

   Every table and figure prints from stc_repro; whole-grid replay, the
   artifact store and layout construction are timed by the repository
   benchmark (perfbench/, see its README). *)

module Pipeline = Stc_core.Pipeline
module L = Stc_layout
module F = Stc_fetch

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
    | (("fetch" | "stream") as part) :: rest ->
      parts := part :: !parts;
      go rest
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %s (parts: fetch, stream)\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  if !parts = [] then begin
    prerr_endline "bench: name a part to run: fetch, stream";
    exit 2
  end;
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
    (F.Engine.Bank.run_packed ?ctx
       [| F.Engine.Bank.spec ?icache ?trace_cache:tc () |]
       (List.assq layout compiled)).(0)
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
            (F.Engine.Bank.run_packed
               [| F.Engine.Bank.spec ?icache ?trace_cache:tc () |]
               (List.assq layout compiled)).(0))
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

let () =
  if List.mem "fetch" parts then fetch_bench ();
  if List.mem "stream" parts then stream_bench ();
  (match metrics_file with
  | Some path ->
    Stc_obs.Export.write_file registry path;
    Printf.printf "[metrics] written to %s\n%!" path
  | None -> ());
  match (tracer, trace_file) with
  | Some t, Some path ->
    Stc_obs.Trace.write_file t path;
    Printf.printf "[trace] %d events written to %s\n%!"
      (Stc_obs.Trace.events t) path
  | _ -> ()
