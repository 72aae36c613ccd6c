(* Compare two metrics JSONL exports (see Stc_obs.Export for the schema)
   and exit non-zero when deterministic values drift beyond a tolerance.

     metrics_diff A.jsonl B.jsonl [--tolerance PCT] [--ignore PREFIX]...

   Compared: counters, gauges, span call counts, and every field of
   events, kind included (paired by position in the export, so events
   that interleave differently drift); the comparison itself lives in
   Stc_obs.Diff, shared with the golden-regression harness
   (tools/golden). Ignored: span "seconds"
   (wall clock is never deterministic), plus any metric whose name, event
   whose kind or span whose own name (last path component) starts with an
   --ignore prefix. The canonical use is "--ignore store." to compare a
   cold against a warm artifact-store run, whose only intended difference
   is the store's own hit/miss counters (and, in an export written while
   the registry still had histograms, its store.read_us/store.write_us
   latency records); "--ignore layout-" drops the
   per-layout build spans, for comparing runs that build layouts in
   different places. Tolerance is relative, in percent; the default 0 demands
   exact equality, which is what two same-seed runs must achieve.

   A missing, unreadable, unparsable or *empty* input is a hard error:
   an export with zero records can only green-light a vacuous diff, so
   CI must never see it as success.

   Exit codes: 0 no drift, 1 drift, 2 usage or input error. *)

let usage () =
  prerr_endline
    "usage: metrics_diff A.jsonl B.jsonl [--tolerance PCT] [--ignore PREFIX]...";
  exit 2

let parse_args () =
  let files = ref [] and tolerance = ref 0.0 and ignores = ref [] in
  let rec go = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> tolerance := t /. 100.0
      | _ -> usage ());
      go rest
    | "--ignore" :: p :: rest ->
      ignores := p :: !ignores;
      go rest
    | a :: rest ->
      files := a :: !files;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ a; b ] -> (a, b, !tolerance, !ignores)
  | _ -> usage ()

let () =
  let file_a, file_b, tolerance, ignores = parse_args () in
  let load path =
    match Stc_obs.Diff.load_file path with
    | Ok records -> records
    | Error e ->
      Printf.eprintf "metrics_diff: %s\n" e;
      exit 2
  in
  let a = load file_a and b = load file_b in
  let drift, compared =
    Stc_obs.Diff.diff_records ~tolerance ~ignores ~a_label:file_a
      ~b_label:file_b a b
  in
  match drift with
  | [] ->
    Printf.printf "no drift: %s and %s agree (%d records)\n" file_a file_b
      compared
  | msgs ->
    List.iter print_endline msgs;
    Printf.printf "%d drifting record(s) between %s and %s\n" (List.length msgs)
      file_a file_b;
    exit 1
