(* Compare perfbench results of a baseline tree and a changed tree.

     bench_diff --spec BENCHMARK.json BASE.jsonl HEAD.jsonl

   Each line of BASE.jsonl and HEAD.jsonl is the last line of one
   `bash perfbench/run.sh` run: an object with the keys correct,
   attempted, failed and metrics ({"NAME": {"value": V, "unit": U}}).
   Untraced and traced lines may be mixed. A line does not name its
   workload, so one pair of files holds the runs of one workload, and
   its two sides should come from alternating runs on one host: only
   medians of those tell a regression apart from noise.

   Per metric of the spec, in the spec's order, HEAD's median over its
   lines is compared with BASE's, in the direction of the spec's
   "better". An end_to_end metric fails when HEAD is worse by more than
   its "bound", the rule the benchmark applies to a change, or when
   either side lacks it; so does any line whose "correct" is false.
   per_layer metrics are printed and not gated: a traced run times each
   fetch.slot.* probe as the median of three short sweeps, and on a
   2-vCPU VM runs of one tree spread wider than 25% on them. Replay
   speed is gated end to end, through grid_s.

   Exit codes: 0 no regression, 1 a regression, a missing end_to_end
   metric or an incorrect run, 2 usage or parse error. *)

module J = Stc_obs.Json

let usage () =
  prerr_endline "usage: bench_diff --spec BENCHMARK.json BASE.jsonl HEAD.jsonl";
  exit 2

let input_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench_diff: " ^ m);
      exit 2)
    fmt

let parse_args () =
  let rec go spec files = function
    | "--spec" :: v :: rest -> go (Some v) files rest
    | f :: rest -> go spec (f :: files) rest
    | [] -> (
      match (spec, List.rev files) with
      | Some spec, [ base; head ] -> (spec, base, head)
      | _ -> usage ())
  in
  go None [] (List.tl (Array.to_list Sys.argv))

(* What fails the gate, reported together at the end. *)
let failures = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let parse path parser =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> input_error "%s" e
  | text -> ( try parser text with Failure e -> input_error "%s: %s" path e)

(* The spec's metrics in order: name, lower is better, and the bound as
   a fraction (None for a per_layer metric, printed only). *)
let load_spec path =
  let spec = parse path J.of_string in
  let group name bound =
    match J.member name spec with
    | Some (J.List entries) ->
      List.map
        (fun e ->
          match (J.member "name" e, J.member "better" e) with
          | Some (J.Str n), Some (J.Str (("lower" | "higher") as b)) ->
            (n, b = "lower", bound n e)
          | _ -> input_error "%s: a %s entry lacks a name or better" path name)
        entries
    | _ -> input_error "%s: no %s list" path name
  in
  group "end_to_end" (fun n e ->
      match Option.bind (J.member "bound" e) J.to_float with
      | None -> input_error "%s: end_to_end %s has no bound" path n
      | bound -> bound)
  @ group "per_layer" (fun _ _ -> None)

(* One side: its number of lines, and each metric's values over them. *)
let load_results path =
  let lines = parse path J.lines in
  if lines = [] then input_error "%s: no result lines" path;
  let values = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      match (J.member "correct" line, J.member "metrics" line) with
      | Some (J.Bool ok), Some (J.Obj metrics) ->
        if not ok then fail "%s: line %d has correct false" path (i + 1);
        List.iter
          (fun (n, m) ->
            match Option.bind (J.member "value" m) J.to_float with
            | Some v -> Hashtbl.add values n v
            | None -> input_error "%s: line %d: %s has no value" path (i + 1) n)
          metrics
      | _ -> input_error "%s: line %d is not a run.sh result" path (i + 1))
    lines;
  (List.length lines, values)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  let spec_path, base_path, head_path = parse_args () in
  let spec = load_spec spec_path in
  let base_n, base = load_results base_path in
  let head_n, head = load_results head_path in
  Printf.printf "medians of %d BASE and %d HEAD lines\n" base_n head_n;
  List.iter
    (fun (name, lower, bound) ->
      let missing side =
        if bound <> None then fail "%s: missing from %s" name side;
        Printf.printf "  %-36s missing from %s%s\n" name side
          (if bound = None then " (not gated)" else "")
      in
      match (Hashtbl.find_all base name, Hashtbl.find_all head name) with
      | [], _ -> missing "BASE"
      | _, [] -> missing "HEAD"
      | bs, hs ->
        let b = median bs and h = median hs in
        let change = (h -. b) /. Float.abs b in
        let worse = if lower then change else -.change in
        let verdict =
          match bound with
          | None -> "not gated"
          | Some g ->
            if worse > g then
              fail "%s: %.1f%% worse (%g -> %g), bound %.0f%%" name
                (100.0 *. worse) b h (100.0 *. g);
            Printf.sprintf "%sbound %.0f%%"
              (if worse > g then "REGRESSION, " else "")
              (100.0 *. g)
        in
        Printf.printf "  %-36s %12.6g -> %-12.6g %+7.1f%%  %s better, %s\n"
          name b h (100.0 *. change)
          (if lower then "lower" else "higher")
          verdict)
    spec;
  match List.rev !failures with
  | [] -> print_endline "bench_diff: no regression"
  | msgs ->
    flush stdout;
    List.iter (fun m -> prerr_endline ("bench_diff: " ^ m)) msgs;
    exit 1
