(* Compare two metrics JSONL exports (see Stc_obs.Export for the schema)
   and exit non-zero when any value differs.

     metrics_diff A.jsonl B.jsonl [--ignore PREFIX]...

   Compared exactly, through Stc_obs.Diff (shared with tools/golden):
   counters and gauges by name, and every field of events, kind
   included, by position in the export (so events that interleave
   differently drift). An export holds no wall-clock value, so two
   same-seed runs must agree byte for byte. Any metric whose name or
   event whose kind starts with an --ignore prefix is dropped from both
   sides: "--ignore store." compares a cold with a warm artifact-store
   run, which differ only in the store's own counters and warnings.

   A missing, unreadable, unparsable or *empty* input is a hard error:
   an export with zero records can only green-light a vacuous diff, so
   CI must never see it as success.

   Exit codes: 0 no drift, 1 drift, 2 usage or input error. *)

let usage () =
  prerr_endline "usage: metrics_diff A.jsonl B.jsonl [--ignore PREFIX]...";
  exit 2

let parse_args () =
  let files = ref [] and ignores = ref [] in
  let rec go = function
    | [] -> ()
    | "--ignore" :: p :: rest ->
      ignores := p :: !ignores;
      go rest
    | a :: _ when String.starts_with ~prefix:"-" a -> usage ()
    | a :: rest ->
      files := a :: !files;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.rev !files with [ a; b ] -> (a, b, !ignores) | _ -> usage ()

let () =
  let file_a, file_b, ignores = parse_args () in
  let load path =
    match Stc_obs.Diff.load_file path with
    | Ok records -> records
    | Error e ->
      Printf.eprintf "metrics_diff: %s\n" e;
      exit 2
  in
  let a = load file_a and b = load file_b in
  let drift, compared =
    Stc_obs.Diff.diff_records ~ignores ~a_label:file_a ~b_label:file_b a b
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
