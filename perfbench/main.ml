(* The repository benchmark: one workload, one seed, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --spec BENCHMARK.json --expected DIR [--update-expected]

   Untraced (--trace 0), it repeats the workload's unit of work through
   the library (Pipeline.run, then Experiments.simulate or .extended)
   until S seconds have passed, rebuilding the pipeline every repetition,
   and reports the end-to-end metrics as medians over the repetitions.
   Traced (--trace 1), it runs the unit once untraced as the reference,
   then once more layer by layer under a tracer (see Replica), reports
   the per-layer metrics and writes the Chrome trace to
   .perfbench/trace-NAME-seedN.json for tools/trace_report.

   Every row a run produces is checked: each repetition against the
   first, the first against DIR/NAME.seedN.txt when that file exists,
   one seeded cell of each hardware configuration against the Stc_check
   reference oracle, and in a traced run the replica's rows against the
   library's. A row that fails any check counts as failed.

   Every metric the run produced is printed as a summary line. The last
   line of standard output is one JSON object with the keys correct,
   attempted (rows checked), failed and metrics. Its metrics are exactly
   the spec's end_to_end (--trace 0) or per_layer (--trace 1) list, in
   its order and with its units; a metric the spec names but the run did
   not produce is an error (exit 1, no result). --update-expected writes
   DIR/NAME.seedN.txt from the first repetition instead of comparing
   against it.

   Exit codes: 0 all rows correct, 1 a failed row or an error, 2 usage. *)

module Pipeline = Stc_core.Pipeline
module Run = Stc_core.Run
module E = Stc_core.Experiments
module J = Stc_obs.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --spec \
     FILE --expected DIR [--update-expected]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  spec : string;
  expected : string;
  update_expected : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and spec = ref None and expected = ref None in
  let update_expected = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Workload.find v with
      | Some w -> workload := Some w
      | None -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> seed := Some s
      | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> usage ());
      go rest
    | "--spec" :: v :: rest ->
      spec := Some v;
      go rest
    | "--expected" :: v :: rest ->
      expected := Some v;
      go rest
    | "--update-expected" :: rest ->
      update_expected := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace, !spec, !expected) with
  | Some workload, Some seed, Some seconds, Some trace, Some spec, Some expected
    ->
    {
      workload;
      seed;
      seconds;
      trace;
      spec;
      expected;
      update_expected = !update_expected;
    }
  | _ -> usage ()

(* Scratch space inside the working directory: fresh artifact stores
   (removed after use) and the traced run's trace file. *)
let scratch = ".perfbench"

(* ---------- correctness account ---------- *)

let attempted = ref 0

let failed = ref 0

let fail n fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + n;
      Printf.eprintf "perfbench: FAIL %s\n%!" msg)
    fmt

(* Positions where [a] and [b] differ, a missing entry included. *)
let differing a b =
  let bad = ref 0 in
  for i = 0 to max (Array.length a) (Array.length b) - 1 do
    if i >= Array.length a || i >= Array.length b || a.(i) <> b.(i) then
      incr bad
  done;
  !bad

(* Rows of one grid: each counts as attempted, and each that differs
   from the reference row in its position (or is missing) as failed. *)
let check_rows ~what ~reference rows =
  attempted := !attempted + Array.length rows;
  let bad = differing reference rows in
  if bad > 0 then
    fail bad "%s: %d of %d rows differ" what bad (Array.length reference)

(* Rep isolation: every repetition must build its own pipeline and
   profile. A reused profile would keep ExtTSP's and Codestitcher's
   per-profile memos warm and hide their cost from later repetitions.
   Weak pointers, so the guard keeps no pipeline alive. *)
let last_pl : Pipeline.t Weak.t = Weak.create 1

let last_profile : Stc_profile.Profile.t Weak.t = Weak.create 1

let guard_fresh ~cells (pl : Pipeline.t) =
  let reused w v =
    match Weak.get w 0 with Some o -> o == v | None -> false
  in
  if reused last_pl pl || reused last_profile pl.Pipeline.profile then
    fail cells "repetition reused the previous pipeline or profile";
  Weak.set last_pl 0 (Some pl);
  Weak.set last_profile 0 (Some pl.Pipeline.profile)

(* ---------- one unit of work through the library ---------- *)

let ctx_of (w : Workload.t) = Run.with_jobs w.Workload.jobs Run.default

let run_grid (w : Workload.t) ctx pl =
  let layouts = w.Workload.layouts in
  Array.of_list
    (match w.Workload.grid with
    | Cells.Simulate -> E.simulate ~ctx ?layouts pl
    | Cells.Extended -> E.extended ~ctx ?layouts pl)

(* Set-up and grid, timed separately, from a compacted heap so that one
   repetition's garbage does not bill the next. *)
let compute (w : Workload.t) ~seed ctx =
  Gc.compact ();
  let config = Workload.inputs w.Workload.config ~seed in
  let pl, setup_s = Stats.time (fun () -> Pipeline.run ~ctx ~config ()) in
  let rows, grid_s = Stats.time (fun () -> run_grid w ctx pl) in
  guard_fresh ~cells:(Array.length rows) pl;
  (pl, rows, setup_s, grid_s)

(* Warm re-runs per populated store in the warm-store workload: two
   leave room for three populate passes in a 20 s run, so that setup_s
   is a median of three. *)
let warm_reruns = 2

type measured = {
  setups : float list;
  grids : float list;
  reps : int;
  pl : Pipeline.t;  (** Of the last repetition. *)
  reference : E.row array;  (** The first repetition's rows. *)
}

(* Repeat the workload's unit until [seconds] have passed; a repetition
   is not started when half a median repetition would overrun. *)
let measure (w : Workload.t) ~seed ~seconds =
  let ctx = ctx_of w in
  let setups = ref [] and grids = ref [] and durations = ref [] in
  let reference = ref None and last = ref None in
  let record pl rows =
    (match !reference with
    | None ->
      attempted := !attempted + Array.length rows;
      reference := Some rows
    | Some r -> check_rows ~what:"repetition vs first" ~reference:r rows);
    last := Some pl
  in
  let t_start = Stats.now () in
  let more () =
    match !durations with
    | [] -> true
    | ds -> Stats.now () -. t_start +. (Stats.median ds /. 2.0) < seconds
  in
  while more () do
    (* only one pipeline alive at a time, so peak_rss_mb is one unit's *)
    last := None;
    let t0 = Stats.now () in
    (if w.Workload.warm_store then begin
       let dir =
         Filename.concat scratch (Printf.sprintf "store-%d" (Unix.getpid ()))
       in
       Replica.rm_rf dir;
       Fun.protect ~finally:(fun () -> Replica.rm_rf dir) @@ fun () ->
       let sctx = Run.with_store dir ctx in
       let pl, rows, s, g = compute w ~seed sctx in
       setups := (s +. g) :: !setups;
       record pl rows;
       for _ = 1 to warm_reruns do
         let pl, rows, s, g = compute w ~seed sctx in
         grids := (s +. g) :: !grids;
         record pl rows
       done
     end
     else
       let pl, rows, s, g = compute w ~seed ctx in
       setups := s :: !setups;
       grids := g :: !grids;
       record pl rows);
    durations := (Stats.now () -. t0) :: !durations
  done;
  {
    setups = List.rev !setups;
    grids = List.rev !grids;
    reps = List.length !durations;
    pl = Option.get !last;
    reference = Option.get !reference;
  }

(* ---------- checks on the reference rows ---------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let check_expected args reference =
  let w = args.workload in
  let path =
    Filename.concat args.expected
      (Printf.sprintf "%s.seed%d.txt" w.Workload.name args.seed)
  in
  let lines = Array.map (Cells.row_to_string w.Workload.grid) reference in
  if args.update_expected then begin
    let oc = open_out path in
    Array.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "wrote %s\n" path
  end
  else if Sys.file_exists path then begin
    let bad = differing (Array.of_list (read_lines path)) lines in
    if bad > 0 then fail bad "%d rows differ from %s" bad path
    else Printf.printf "rows match %s\n" path
  end

(* Re-derive one cell of every hardware configuration in the grid
   (variant, associativity, policy, prefetching) with the reference
   oracle, the cell picked by the seed, so that each cache and fetch
   feature is checked on every run. *)
let check_oracle (w : Workload.t) ~seed pl reference =
  let cells = Cells.plan w.Workload.grid ~layouts:w.Workload.layouts pl in
  let n = Array.length cells in
  if n <> Array.length reference then
    fail n "cell plan has %d cells, the grid %d rows" n (Array.length reference)
  else begin
    let rng = Random.State.make [| seed |] in
    let kind (c : Cells.cell) =
      (c.variant, c.assoc, Cells.policy_name c.policy, c.fdip <> None)
    in
    let kinds = List.sort_uniq compare (Array.to_list (Array.map kind cells)) in
    let sample =
      List.map
        (fun k ->
          let members =
            List.filter (fun i -> kind cells.(i) = k) (List.init n Fun.id)
          in
          List.nth members (Random.State.int rng (List.length members)))
        kinds
    in
    let show = Cells.row_to_string w.Workload.grid in
    List.iter
      (fun i ->
        let row = Cells.row cells.(i) (Cells.oracle_result pl cells.(i)) in
        if row <> reference.(i) then
          fail 1 "oracle disagrees on row %d: %s vs %s" i (show row)
            (show reference.(i)))
      sample;
    Printf.printf "oracle re-derived rows %s\n"
      (String.concat "," (List.map string_of_int sample))
  end

let check_reference args pl reference =
  check_expected args reference;
  check_oracle args.workload ~seed:args.seed pl reference

(* ---------- the two modes ---------- *)

let test_instrs (pl : Pipeline.t) =
  let blocks = pl.Pipeline.program.Stc_cfg.Program.blocks in
  let n = ref 0 in
  Pipeline.replay_test pl (fun b -> n := !n + blocks.(b).Stc_cfg.Block.size);
  !n

let print_samples name xs =
  Printf.printf "%s samples (%d): %s\n" name (List.length xs)
    (String.concat " " (List.map (Printf.sprintf "%.3f") xs))

let untraced args =
  let m = measure args.workload ~seed:args.seed ~seconds:args.seconds in
  let peak = Stats.peak_rss_mb () in
  check_reference args m.pl m.reference;
  let cells = Array.length m.reference in
  let grid_s = Stats.median m.grids in
  let minstr = float_of_int cells *. float_of_int (test_instrs m.pl) /. 1e6 in
  Printf.printf "%d repetitions, %d rows each\n" m.reps cells;
  print_samples "setup_s" m.setups;
  print_samples "grid_s" m.grids;
  [
    ("setup_s", Stats.median m.setups, "s");
    ("grid_s", grid_s, "s");
    ("sim_minstr_per_s", minstr /. grid_s, "Minstr/s");
    ("peak_rss_mb", peak, "MB");
  ]

let traced args =
  let w = args.workload in
  let pl, rows, setup_s, grid_s = compute w ~seed:args.seed (ctx_of w) in
  attempted := !attempted + Array.length rows;
  check_reference args pl rows;
  let tr = Stc_obs.Trace.create () in
  let o =
    Replica.run tr ~scratch w ~seed:args.seed ~untraced_s:(setup_s +. grid_s)
  in
  check_rows ~what:"replica vs library" ~reference:rows o.Replica.rows;
  if o.Replica.test_hash <> Stc_trace.Recorder.hash pl.Pipeline.test then
    fail (Array.length rows) "replica recorded a different test trace";
  List.iter
    (fun (what, ok) -> if not ok then fail 1 "%s disagrees with the grid" what)
    o.Replica.probes_ok;
  let path =
    Filename.concat scratch
      (Printf.sprintf "trace-%s-seed%d.json" w.Workload.name args.seed)
  in
  Stc_obs.Trace.write_file tr path;
  Printf.printf "trace: %d events written to %s\n"
    (Stc_obs.Trace.events tr) path;
  o.Replica.metrics

(* ---------- output ---------- *)

let spec_units path ~trace =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let group = if trace then "per_layer" else "end_to_end" in
  let bad what = failwith (Printf.sprintf "%s: %s %s" path group what) in
  match J.member group (J.of_string text) with
  | Some (J.List entries) ->
    List.map
      (fun e ->
        match (J.member "name" e, J.member "unit" e) with
        | Some (J.Str n), Some (J.Str u) -> (n, u)
        | _ -> bad "entry lacks a name or unit")
      entries
  | _ -> bad "list missing"

(* The metrics the spec names, in its order; every one must have been
   produced, with the spec's unit and a finite value. *)
let select args metrics =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  let picked =
    List.filter_map
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) metrics with
        | None ->
          error "metric %s not produced" name;
          None
        | Some (_, _, u) when u <> unit_ ->
          error "metric %s in %s, the spec says %s" name u unit_;
          None
        | Some (_, v, _) when not (Float.is_finite v) ->
          error "metric %s is %f" name v;
          None
        | Some m -> Some m)
      (spec_units args.spec ~trace:args.trace)
  in
  if !errors <> [] then begin
    List.iter (Printf.eprintf "perfbench: %s\n") (List.rev !errors);
    exit 1
  end;
  picked

let () =
  let args = parse_args () in
  Printf.printf "perfbench: workload %s, seed %d, %s, %g s\n%!"
    args.workload.Workload.name args.seed
    (if args.trace then "traced" else "untraced")
    args.seconds;
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let metrics =
    try
      let produced = if args.trace then traced args else untraced args in
      List.iter
        (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u)
        produced;
      select args produced
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
  in
  let correct = !failed = 0 in
  let metric (n, v, u) =
    (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Obj (List.map metric metrics));
          ]));
  exit (if correct then 0 else 1)
