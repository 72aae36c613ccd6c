(* Golden-regression harness: regenerate the quick-config experiment
   outputs and diff them against committed snapshots.

     golden [--update] [--golden DIR] [--jobs N] [--seed N]
            [--layouts CSV]

   One quick pipeline run (seeded, default 1) produces five artifacts:

     simulate_rows.txt   Experiments.simulate, one row_to_string per line
     ablation_rows.txt   Experiments.ablation, one line per sweep point
     extended_rows.txt   Experiments.extended (policy × prefetch grid),
                         one ext_row_to_string per line
     metrics.jsonl       the full Stc_obs.Export of the run
     extensions.jsonl    the Stc_obs.Export of a separate registry into
                         which the seven Extensions studies run (same
                         pipeline, same --jobs): their ext-<study>.cell
                         events carry every study number

   Without --update each is compared against DIR (default "golden"): the
   row files byte for byte, the two metrics exports through Stc_obs.Diff
   with store.* ignored (the artifact store may or may not be warm) — which
   also ignores span seconds, so the comparison is stable across
   machines and --jobs values (the registry's determinism guarantee).
   A missing golden directory, a missing snapshot file or an empty one
   is a hard error (exit 2), never a silent pass: regenerate with
   --update and commit the result. The directory check runs before the
   pipeline, so a misconfigured checkout fails in milliseconds.

   --layouts CSV restricts the per-CFA grid rows to the named layout
   algorithms (Stc_layout.Algo registry names; default all). The
   committed snapshots are generated with the default, so pass it only
   against a matching --golden directory.

   Exit codes: 0 clean, 1 drift, 2 usage/missing-snapshot error. *)

module E = Stc_core.Experiments
module X = Stc_core.Extensions
module Pipeline = Stc_core.Pipeline
module Run = Stc_core.Run
module Obs = Stc_obs

let usage () =
  prerr_endline
    "usage: golden [--update] [--golden DIR] [--jobs N] [--seed N] \
     [--layouts CSV]";
  exit 2

let parse_args () =
  let update = ref false
  and dir = ref "golden"
  and jobs = ref 1
  and seed = ref 1
  and layouts = ref None in
  let rec go = function
    | [] -> ()
    | "--update" :: rest ->
      update := true;
      go rest
    | "--golden" :: d :: rest ->
      dir := d;
      go rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with Some j when j >= 1 -> jobs := j | _ -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := s | _ -> usage ());
      go rest
    | "--layouts" :: v :: rest ->
      let names =
        String.split_on_char ',' v
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      (match E.resolve_layouts names with
      | Ok _ -> layouts := Some names
      | Error msg ->
        Printf.eprintf "golden: %s\n" msg;
        usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (!update, !dir, !jobs, !seed, !layouts)

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let read_lines path =
  try
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        Ok (List.rev acc)
    in
    go []
  with Sys_error e -> Error e

(* First differing line wins the report; a length difference with a
   common prefix is reported as the first missing/extra line. *)
let diff_lines ~name golden current =
  let rec go i g c =
    match (g, c) with
    | [], [] -> []
    | g0 :: _, [] ->
      [ Printf.sprintf "%s: line %d missing (golden has %S)" name i g0 ]
    | [], c0 :: _ ->
      [ Printf.sprintf "%s: extra line %d %S" name i c0 ]
    | g0 :: gs, c0 :: cs ->
      if String.equal g0 c0 then go (i + 1) gs cs
      else
        [
          Printf.sprintf "%s: line %d differs\n  golden:  %s\n  current: %s"
            name i g0 c0;
        ]
  in
  go 1 golden current

let () =
  let update, dir, jobs, seed, layouts = parse_args () in
  (* Refuse a comparison against nothing before paying for the run: an
     absent golden directory used to surface only as per-file read
     errors after the full pipeline had completed. *)
  if (not update) && not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf
      "golden: snapshot directory %s missing — run with --update and commit \
       the result\n"
      dir;
    exit 2
  end;
  let reg = Obs.Registry.create () in
  let ctx =
    Run.default |> Run.with_metrics reg |> Run.with_seed seed
    |> Run.with_jobs jobs
  in
  let pl = Pipeline.run ~ctx ~config:Pipeline.quick_config () in
  let sim_lines =
    List.map E.row_to_string (E.simulate ~ctx ?layouts pl)
  in
  let abl_lines =
    List.map E.ablation_row_to_string (E.ablation ~ctx pl)
  in
  let ext_lines =
    List.map E.ext_row_to_string (E.extended ~ctx ?layouts pl)
  in
  let studies_reg = Obs.Registry.create () in
  (let ctx = { ctx with Run.metrics = Some studies_reg } in
   ignore (X.inlining ~ctx pl);
   ignore (X.oltp ~ctx pl);
   ignore (X.prediction ~ctx pl);
   ignore (X.tuning ~ctx pl);
   ignore (X.per_query ~ctx pl);
   ignore (X.fetch_units ~ctx pl);
   ignore (X.associativity ~ctx pl));
  let sim_path = Filename.concat dir "simulate_rows.txt" in
  let abl_path = Filename.concat dir "ablation_rows.txt" in
  let ext_path = Filename.concat dir "extended_rows.txt" in
  let met_path = Filename.concat dir "metrics.jsonl" in
  let studies_path = Filename.concat dir "extensions.jsonl" in
  if update then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    write_lines sim_path sim_lines;
    write_lines abl_path abl_lines;
    write_lines ext_path ext_lines;
    Obs.Export.write_file reg met_path;
    Obs.Export.write_file studies_reg studies_path;
    Printf.printf "golden: wrote %s, %s, %s, %s, %s\n" sim_path abl_path
      ext_path met_path studies_path
  end
  else begin
    let require = function
      | Ok v -> v
      | Error e ->
        Printf.eprintf
          "golden: %s\ngolden: snapshot missing or unreadable — run with \
           --update and commit the result\n"
          e;
        exit 2
    in
    (* An empty row snapshot means a botched --update, not an empty
       grid: no configuration of the harness produces zero rows. *)
    let require_lines path =
      match require (read_lines path) with
      | [] ->
        Printf.eprintf
          "golden: %s is empty — snapshot damaged; run with --update and \
           commit the result\n"
          path;
        exit 2
      | lines -> lines
    in
    let sim_golden = require_lines sim_path in
    let abl_golden = require_lines abl_path in
    let ext_golden = require_lines ext_path in
    (* current metrics go through the same serialize/parse round trip *)
    let diff_export path reg =
      let golden = require (Obs.Diff.load_file path) in
      let tmp = Filename.temp_file "golden_current" ".jsonl" in
      Obs.Export.write_file reg tmp;
      let current = require (Obs.Diff.load_file tmp) in
      Sys.remove tmp;
      ( fst
          (Obs.Diff.diff_records ~ignores:[ "store." ] ~a_label:path
             ~b_label:"current run" golden current),
        List.length golden )
    in
    let met_drift, met_records = diff_export met_path reg in
    let studies_drift, studies_records = diff_export studies_path studies_reg in
    let drift =
      diff_lines ~name:"simulate_rows" sim_golden sim_lines
      @ diff_lines ~name:"ablation_rows" abl_golden abl_lines
      @ diff_lines ~name:"extended_rows" ext_golden ext_lines
      @ met_drift @ studies_drift
    in
    match drift with
    | [] ->
      Printf.printf
        "golden: clean (%d simulate rows, %d ablation rows, %d extended \
         rows, %d metric records, %d study metric records, jobs=%d, \
         seed=%d)\n"
        (List.length sim_lines) (List.length abl_lines)
        (List.length ext_lines) met_records studies_records jobs seed
    | msgs ->
      List.iter print_endline msgs;
      Printf.printf "golden: %d drift(s) against %s\n" (List.length msgs) dir;
      exit 1
  end
