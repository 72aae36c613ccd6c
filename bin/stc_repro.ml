(* Command-line driver: regenerate the paper's tables and figures. *)

open Cmdliner
module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module Run = Stc_core.Run
module Obs = Stc_obs

let pipeline_config quick sf frames =
  let base = if quick then Pipeline.quick_config else Pipeline.default_config in
  let base = match sf with Some sf -> { base with Pipeline.sf } | None -> base in
  { base with Pipeline.frames }

let default_jobs = max 1 (Domain.recommended_domain_count () - 1)

(* Exit 1 with a message on bad input, before any set-up runs. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "stc_repro: %s\n%!" msg;
      exit 1)
    fmt

(* The grid's thresholds, checked as the layout algorithms will check
   them. *)
let sim_config exec_threshold branch_threshold =
  (try
     ignore
       (Stc_layout.Algo.params ~exec_threshold ~branch_threshold
          ~cache_bytes:0 ~cfa_bytes:0 ())
   with Invalid_argument msg -> fail "%s" msg);
  {
    E.default_sim_config with
    E.exec_threshold;
    branch_threshold;
  }

(* The scale factor and the buffer-pool size, checked as set-up will
   check them. *)
let check_config (config : Pipeline.config) =
  try
    Stc_dbdata.Datagen.check_sf config.Pipeline.sf;
    ignore (Stc_db.Bufmgr.create ~frames:config.Pipeline.frames ())
  with Invalid_argument msg -> fail "%s" msg

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced kernel and scale factor (fast).")

let sf_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"SF" ~doc:"TPC-D scale factor (default 0.002).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N" ~doc:"Master seed for kernel, data and walker.")

let jobs_arg =
  Arg.(
    value & opt int default_jobs
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run simulation cells on $(docv) OCaml domains. 1 selects the \
           exact serial path; any value produces byte-identical metric \
           exports. Defaults to the recommended domain count minus one.")

let frames_arg =
  Arg.(
    value & opt int 256
    & info [ "frames" ] ~docv:"N" ~doc:"Buffer-pool frames per database.")

let exec_arg =
  Arg.(
    value & opt int 50
    & info [ "exec-threshold" ] ~docv:"N" ~doc:"STC Exec Threshold (pass 2).")

let branch_arg =
  Arg.(
    value & opt float 0.3
    & info [ "branch-threshold" ] ~docv:"P" ~doc:"STC Branch Threshold.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export run metrics (counters, gauges, experiment-cell \
           records) to $(docv) as JSONL; see README 'Observability'. \
           Every record is deterministic: two runs with the same seed \
           and configuration write the same bytes at any --jobs. \
           Compare two runs with tools/metrics_diff; phase timings are \
           in the --trace file.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record per-domain timeline events (phases, fused replay \
           groups, pool chunks, store operations) and write them to $(docv) as Chrome \
           trace_event JSON — load it in Perfetto (ui.perfetto.dev) or \
           summarize with tools/trace_report. Without this flag the \
           tracer is entirely absent and the run's outputs are \
           byte-identical to an untraced run.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print one $(i,NAME): $(i,SECONDS)s line on stderr as each \
           phase, layout build, grid and fused replay group ends: the \
           spans a --trace run records, live. Outputs are unchanged.")

let layouts_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "layouts" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated layout algorithms for the per-CFA grid rows \
           (default: every registered one). Names, slugs and aliases from \
           the algorithm registry are accepted, case-insensitively — see \
           $(b,stc_repro layouts) for the list. The orig and P&H \
           baseline rows are always simulated.")

(* Split, trim and resolve a --layouts value against the registry;
   exit 1 with the valid names spelled out on any unknown entry. *)
let parse_layouts = function
  | None -> None
  | Some csv ->
    let names =
      String.split_on_char ',' csv
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    (match E.resolve_layouts names with
    | Ok _ -> Some names
    | Error msg -> fail "%s" msg)

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Cache recorded traces, layouts and simulation results in \
           $(docv) (created if missing), keyed by content, and reuse them \
           on later runs. A warm rerun prints the same tables and exports \
           the same metrics (minus store.* counters) in a fraction of the \
           time; stale or damaged entries are recomputed, never trusted. \
           Inspect with tools/store_inspect.")

(* Fail on an unwritable --metrics/--trace path before the run, not
   after it. *)
let check_out_path what = function
  | None -> ()
  | Some path -> (
    try close_out (open_out path)
    with Sys_error e -> fail "cannot write %s file: %s" what e)

(* A --store path must be a directory or creatable as one. [open_]
   creates it when it can and never raises (a library run goes on with
   a broken cache), so the CLI looks at what is there afterwards. *)
let check_store_dir = function
  | None -> ()
  | Some dir -> (
    ignore (Stc_store.open_ dir);
    match (Unix.stat dir).Unix.st_kind with
    | Unix.S_DIR -> ()
    | _ -> fail "cannot use store directory %s: not a directory" dir
    | exception Unix.Unix_error (e, _, _) ->
      fail "cannot use store directory %s: %s" dir (Unix.error_message e))

(* The tracer exists only when --trace was given: with None in the ctx
   every instrumentation site is a single branch and the run is
   untouched. *)
let make_tracer = function None -> None | Some _ -> Some (Obs.Trace.create ())

let finish_trace tracer trace_file =
  match (tracer, trace_file) with
  | Some t, Some path ->
    Obs.Trace.write_file t path;
    Printf.printf "Trace: %d events written to %s\n%!" (Obs.Trace.events t)
      path
  | _ -> ()

(* One-line cache summary, only when --store was given. *)
let report_store reg store =
  match store with
  | None -> ()
  | Some dir ->
    let counters = Obs.Registry.counters reg in
    let get name = Option.value ~default:0 (List.assoc_opt name counters) in
    Printf.printf
      "\nStore %s: %d hits, %d misses, %d writes (%d corrupt, %d KB read, %d \
       KB written)\n\
       %!"
      dir (get "store.hits") (get "store.misses") (get "store.writes")
      (get "store.corrupt")
      (get "store.bytes_read" / 1024)
      (get "store.bytes_written" / 1024)

let finish_metrics reg metrics_file =
  match metrics_file with
  | None -> ()
  | Some path ->
    Obs.Export.write_file reg path;
    Printf.printf "\nMetrics: %d JSONL records written to %s\n%!"
      (List.length (String.split_on_char '\n' (Obs.Export.to_jsonl reg)) - 1)
      path

(* The options every pipeline-building subcommand shares. *)
type common = {
  quick : bool;
  sf : float option;
  seed : int option;
  frames : int;
  jobs : int;
  store : string option;
  metrics : string option;
  trace : string option;
  progress : bool;
}

let common_term =
  let make quick sf seed frames jobs store metrics trace progress =
    { quick; sf; seed; frames; jobs; store; metrics; trace; progress }
  in
  Term.(
    const make $ quick_arg $ sf_arg $ seed_arg $ frames_arg $ jobs_arg
    $ store_arg $ metrics_arg $ trace_arg $ progress_arg)

(* Every subcommand but [layouts]: check the output paths and the store
   directory, build the pipeline, run [body] on it, then report the
   store and write the metrics and trace files. Every run carries one
   registry; counters and events are collected unconditionally (the
   cost is nil next to the simulation) and exported only when --metrics
   was given. *)
let with_pipeline c body =
  check_out_path "metrics" c.metrics;
  check_out_path "trace" c.trace;
  check_store_dir c.store;
  let config = pipeline_config c.quick c.sf c.frames in
  check_config config;
  let reg = Obs.Registry.create () in
  let tracer = make_tracer c.trace in
  (* --seed is applied by Pipeline.run through Run.ctx (Pipeline.seeded);
     --jobs parallelizes the simulation grids without changing any
     output, --store makes reruns consult the artifact cache, and --trace
     records per-domain timeline events. *)
  let ctx =
    Run.default |> Run.with_metrics reg |> Run.with_progress c.progress
    |> Run.with_jobs c.jobs
  in
  let ctx = match c.seed with Some s -> Run.with_seed s ctx | None -> ctx in
  let ctx =
    match c.store with Some dir -> Run.with_store dir ctx | None -> ctx
  in
  let ctx = match tracer with Some t -> Run.with_trace t ctx | None -> ctx in
  Printf.printf
    "Building kernel, loading TPC-D data (sf=%.4g), tracing Training and Test sets...\n%!"
    config.Pipeline.sf;
  let pl = Pipeline.run ~ctx ~config () in
  Printf.printf "Setup done: test trace has %d basic blocks.\n\n%!"
    (Stc_trace.Recorder.length pl.Pipeline.test);
  let result = body ctx pl in
  report_store reg c.store;
  finish_metrics reg c.metrics;
  finish_trace tracer c.trace;
  result

(* Run a simulation grid between a start line and a count line. *)
let reported_grid ctx what grid =
  Printf.printf "Simulating the %s (%d jobs)...\n%!" what ctx.Run.jobs;
  let rows = grid () in
  Printf.printf "%d simulations.\n\n%!" (List.length rows);
  rows

let print_characterization pl =
  E.print_table1 (E.table1 pl);
  print_newline ();
  E.print_figure2 pl;
  print_newline ();
  E.print_reuse (E.reuse pl);
  print_newline ();
  E.print_table2 (E.table2 pl);
  print_newline ();
  Stc_core.Figure3.print ()

let print_tables34 rows =
  E.print_table3 rows;
  print_newline ();
  E.print_table4 rows;
  print_newline ();
  E.print_sequentiality rows

let characterize_cmd =
  let run c = with_pipeline c (fun _ pl -> print_characterization pl) in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:
         "Section 4: Table 1, Figure 2, reuse, Table 2; and Figure 3's \
          trace-building example.")
    Term.(const run $ common_term)

let simulate_run c exec branch layouts =
  let layouts = parse_layouts layouts in
  let config = sim_config exec branch in
  with_pipeline c (fun ctx pl ->
      print_tables34
        (reported_grid ctx "full Table 3 / Table 4 grid" (fun () ->
             E.simulate ~ctx ~config ?layouts pl)))

let simulate_term =
  Term.(const simulate_run $ common_term $ exec_arg $ branch_arg $ layouts_arg)

let simulate_cmd =
  Cmd.v (Cmd.info "simulate" ~doc:"Section 7: Table 3 and Table 4.") simulate_term

let extended_cmd =
  let run c exec branch layouts =
    let layouts = parse_layouts layouts in
    let config = sim_config exec branch in
    with_pipeline c (fun ctx pl ->
        E.print_extended
          (reported_grid ctx "extended policy/prefetch grid" (fun () ->
               E.extended ~ctx ~config ?layouts pl)))
  in
  Cmd.v
    (Cmd.info "extended"
       ~doc:
         "Post-paper hardware grid: replacement policy (LRU, SRRIP, \
          TRRIP) crossed with fetch-directed prefetching over the first \
          two cache sizes, 4-way set-associative, per layout. TRRIP's \
          per-line temperatures come from each layout's own hotness.")
    Term.(const run $ common_term $ exec_arg $ branch_arg $ layouts_arg)

let ablation_cmd =
  let run c =
    with_pipeline c (fun ctx pl -> E.print_ablation (E.ablation ~ctx pl))
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"STC threshold and CFA-size sweep.")
    Term.(const run $ common_term)

let extensions_cmd =
  let run c =
    with_pipeline c (fun ctx pl -> Stc_core.Extensions.print_all ~ctx pl)
  in
  Cmd.v
    (Cmd.info "extensions"
       ~doc:
         "Studies beyond the paper's tables: its Section 8 future work \
          (function inlining, an OLTP workload, automatic threshold \
          selection) plus branch-prediction sensitivity, per-query miss \
          rates, the SEQ.1/2/3 fetch-unit family and the layout x \
          associativity interaction.")
    Term.(const run $ common_term)

let check_cmd =
  let run c =
    let ok =
      with_pipeline c (fun ctx pl ->
          Printf.printf
            "Running layout validators and differential oracles...\n%!";
          let report = Stc_check.run_all ~ctx pl in
          Printf.printf "Checks done.\n\n%!";
          Stc_check.print_report report;
          Stc_check.ok report)
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Correctness checks: validate every layout algorithm's output \
          (overlap, alignment, coverage, CFA containment) and replay the \
          test trace through reference cache/predictor/fetch oracles, \
          diffing them against the engine. Exits non-zero on any \
          violation or divergence.")
    Term.(const run $ common_term)

let layouts_cmd =
  let run () =
    Printf.printf "Registered layout algorithms (in grid order):\n\n";
    List.iter
      (fun a ->
        let open Stc_layout.Algo in
        Printf.printf "  %-14s %s%s\n" a.name
          (if a.uses_cfa then "[CFA] " else "[baseline] ")
          (match a.aliases with
          | [] -> ""
          | l -> Printf.sprintf "(also: %s)" (String.concat ", " l));
        Printf.printf "    %s\n\n" a.describe)
      (Stc_layout.Algo.all ());
    Printf.printf
      "Baselines are always simulated; select CFA algorithms for the \
       grid\nwith, e.g., --layouts ops,codestitcher,exttsp.\n"
  in
  Cmd.v
    (Cmd.info "layouts"
       ~doc:
         "List the registered layout algorithms — names, aliases and a \
          one-paragraph description each — in the order they appear in \
          the comparison grid. Use the names with $(b,simulate \
          --layouts).")
    Term.(const run $ const ())

let all_cmd =
  let run c exec branch =
    let config = sim_config exec branch in
    with_pipeline c (fun ctx pl ->
        print_characterization pl;
        print_newline ();
        print_tables34 (E.simulate ~ctx ~config pl))
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Every table and figure.")
    Term.(const run $ common_term $ exec_arg $ branch_arg)

let () =
  let info =
    Cmd.info "stc_repro"
      ~doc:
        "Reproduction of 'Optimization of Instruction Fetch for Decision \
         Support Workloads' (Ramirez et al., ICPP 1999). With no \
         subcommand, runs $(b,simulate)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:simulate_term info
          [
            characterize_cmd;
            simulate_cmd;
            extended_cmd;
            ablation_cmd;
            extensions_cmd;
            check_cmd;
            layouts_cmd;
            all_cmd;
          ]))
