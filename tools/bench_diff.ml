(* Tolerance-aware comparison of two BENCH_*.json artifacts.

     bench_diff BASELINE CURRENT [--tolerance PCT]

   Both files are JSONL: one provenance-stamped record per bench part
   (bench/main.ml appends one line per part, keyed by its "mode" field
   — "packed", "stream", ...). For every mode present
   in the baseline, every throughput field (any numeric field whose
   name ends in "blocks_per_sec" — higher is better) must not fall more
   than PCT percent (default 25) below the baseline value. Wall-clock
   and speedup fields are ignored: they restate the same measurement
   and would double-report every regression.

   A mode present in the baseline but absent from the current run is a
   failure (a silently dropped benchmark must not pass the gate); a new
   mode only in the current run is reported and allowed, so baselines
   can trail new bench parts. Provenance differences (host, commit,
   jobs) are printed for context, never compared — the tolerance is
   what absorbs machine variance.

   Exit codes: 0 within tolerance, 1 regression or dropped mode,
   2 usage/parse error. *)

module J = Stc_obs.Json

let usage () =
  prerr_endline "usage: bench_diff BASELINE CURRENT [--tolerance PCT]";
  exit 2

let parse_args () =
  let files = ref [] and tolerance = ref 25.0 in
  let rec go = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> tolerance := t
      | _ -> usage ());
      go rest
    | f :: rest ->
      files := f :: !files;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ baseline; current ] -> (baseline, current, !tolerance)
  | _ -> usage ()

let load path =
  match
    let ic = open_in path in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    doc
  with
  | exception Sys_error e ->
    Printf.eprintf "bench_diff: %s\n" e;
    exit 2
  | doc -> (
    match J.lines doc with
    | exception Failure e ->
      Printf.eprintf "bench_diff: %s: %s\n" path e;
      exit 2
    | [] ->
      Printf.eprintf "bench_diff: %s: no records\n" path;
      exit 2
    | records -> records)

let mode_of record =
  match J.member "mode" record with Some (J.Str m) -> Some m | _ -> None

(* Last record wins per mode: bench parts append, so a rerun's fresh
   line supersedes any stale one left in the file. *)
let by_mode records =
  List.fold_left
    (fun acc r ->
      match mode_of r with
      | Some m -> (m, r) :: List.remove_assoc m acc
      | None -> acc)
    [] records
  |> List.rev

let throughput_fields record =
  match record with
  | J.Obj fields ->
    List.filter_map
      (fun (name, v) ->
        let suffix = "blocks_per_sec" in
        let n = String.length name and s = String.length suffix in
        if n >= s && String.equal (String.sub name (n - s) s) suffix then
          Option.map (fun f -> (name, f)) (J.to_float v)
        else None)
      fields
  | _ -> []

let provenance_line path record =
  match J.member "provenance" record with
  | Some (J.Obj p) ->
    let str k =
      match List.assoc_opt k p with Some (J.Str s) -> s | _ -> "?"
    in
    let jobs =
      match List.assoc_opt "jobs" p with Some (J.Int j) -> j | _ -> 0
    in
    Printf.printf "  %s: commit %s, host %s, jobs %d\n" path (str "git_commit")
      (str "hostname") jobs
  | _ -> ()

let () =
  let baseline_path, current_path, tolerance = parse_args () in
  let baseline = by_mode (load baseline_path) in
  let current = by_mode (load current_path) in
  (match (baseline, current) with
  | (_, b) :: _, (_, c) :: _ ->
    provenance_line baseline_path b;
    provenance_line current_path c
  | _ -> ());
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let compared = ref 0 in
  List.iter
    (fun (mode, base_record) ->
      match List.assoc_opt mode current with
      | None -> fail "mode %S: present in baseline, missing from current run" mode
      | Some cur_record ->
        List.iter
          (fun (field, base_v) ->
            match List.assoc_opt field (throughput_fields cur_record) with
            | None -> fail "mode %S: field %s missing from current run" mode field
            | Some cur_v ->
              incr compared;
              let floor = base_v *. (1.0 -. (tolerance /. 100.0)) in
              let delta_pct =
                if base_v = 0.0 then 0.0
                else (cur_v -. base_v) /. base_v *. 100.0
              in
              if cur_v < floor then
                fail
                  "mode %S: %s regressed %.1f%% (baseline %.0f, current %.0f, \
                   tolerance %.0f%%)"
                  mode field (-.delta_pct) base_v cur_v tolerance
              else
                Printf.printf "  mode %-8s %-24s %+7.1f%%  (%.0f -> %.0f)\n"
                  mode field delta_pct base_v cur_v)
          (throughput_fields base_record))
    baseline;
  List.iter
    (fun (mode, _) ->
      if not (List.mem_assoc mode baseline) then
        Printf.printf "  mode %-8s only in current run (no baseline yet)\n" mode)
    current;
  match List.rev !failures with
  | [] ->
    Printf.printf
      "bench_diff: %d throughput field(s) within %.0f%% of %s\n" !compared
      tolerance baseline_path
  | msgs ->
    List.iter prerr_endline msgs;
    Printf.eprintf "bench_diff: %d regression(s) against %s\n"
      (List.length msgs) baseline_path;
    exit 1
