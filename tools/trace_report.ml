(* Summarize a Chrome trace_event JSON file produced by Stc_obs.Trace.

     trace_report TRACE.json [--top N] [--assert-utilization PCT]
                  [--layers SPEC]

   Reports total wall clock, a table of the calling domain's (tid 0)
   top-level slices (per-phase wall time; a pool domain's depth-0
   "pool.chunk" slices are not phases), pool utilization per domain (share of the pool window each
   domain spent inside "pool.chunk" slices), one line counting the fused
   replay sweeps ("engine.fused" Complete slices, one per bank sweep
   with the number of cells it fused) and their cells, the N slowest
   fused grid groups ("fused:..." slices, one per layout group of a
   simulation grid, named by its layouts and grid points, --top,
   default 10), and the artifact-store time split (store.hit / store.miss /
   store.write Complete events: per op the calls, total, p50 and p99
   durations and byte volume — the store's only latency record).

   --layers SPEC adds one row per per-layer metric that the benchmark
   spec SPEC (BENCHMARK.json) names, in its order: the value the trace's
   own slices give (summed over every domain), or "not traced" when no
   library slice measures it.

   --assert-utilization PCT exits 1 unless the mean worker utilization
   over the pool window is at least PCT percent — the CI guard that the
   pool actually keeps its domains busy on a parallel grid.

   Exit codes: 0 ok, 1 assertion failure, 2 usage or input error. *)

module Json = Stc_obs.Json
module Tbl = Stc_util.Tbl

let usage () =
  prerr_endline
    "usage: trace_report TRACE.json [--top N] [--assert-utilization PCT] \
     [--layers SPEC]";
  exit 2

let parse_args () =
  let file = ref None and top = ref 10 and assert_util = ref None in
  let layers = ref None in
  let rec go = function
    | [] -> ()
    | "--layers" :: spec :: rest ->
      layers := Some spec;
      go rest
    | "--top" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n > 0 -> top := n
      | _ -> usage ());
      go rest
    | "--assert-utilization" :: v :: rest ->
      (match float_of_string_opt v with
      | Some p when p >= 0.0 && p <= 100.0 -> assert_util := Some p
      | _ -> usage ());
      go rest
    | a :: rest ->
      (match !file with None -> file := Some a | Some _ -> usage ());
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match !file with
  | Some f -> (f, !top, !assert_util, !layers)
  | None -> usage ()

(* ---------- event and slice extraction ---------- *)

type ev = {
  e_name : string;
  e_ph : string;
  e_ts : float;  (* microseconds *)
  e_dur : float;
  e_tid : int;
  e_bytes : int;
}

let ev_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some f -> f
    | None -> 0.0
  in
  let tid = match Json.member "tid" j with Some (Json.Int i) -> i | _ -> 0 in
  let bytes =
    match Option.bind (Json.member "args" j) (Json.member "bytes") with
    | Some (Json.Int b) -> b
    | _ -> 0
  in
  {
    e_name = str "name";
    e_ph = str "ph";
    e_ts = num "ts";
    e_dur = num "dur";
    e_tid = tid;
    e_bytes = bytes;
  }

type slice = {
  s_name : string;
  s_tid : int;
  s_start : float;
  s_dur : float;
  s_depth : int;
  s_bytes : int;
}

(* Pair B/E per tid into slices (events are in emission order per tid in
   the file); X events become slices directly at the current depth.
   Unbalanced events are counted, not fatal: a trace written while a
   slice was still open ends without its E event, and we still want the
   report. *)
let slices events =
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks tid s;
      s
  in
  let out = ref [] and unbalanced = ref 0 in
  List.iter
    (fun e ->
      let st = stack e.e_tid in
      match e.e_ph with
      | "B" -> st := (e.e_name, e.e_ts) :: !st
      | "E" -> (
        match !st with
        | (name, t0) :: rest when name = e.e_name ->
          st := rest;
          out :=
            {
              s_name = name;
              s_tid = e.e_tid;
              s_start = t0;
              s_dur = e.e_ts -. t0;
              s_depth = List.length rest;
              s_bytes = e.e_bytes;
            }
            :: !out
        | _ -> incr unbalanced)
      | "X" ->
        out :=
          {
            s_name = e.e_name;
            s_tid = e.e_tid;
            s_start = e.e_ts;
            s_dur = e.e_dur;
            s_depth = List.length !st;
            s_bytes = e.e_bytes;
          }
          :: !out
      | _ -> ())
    events;
  Hashtbl.iter (fun _ st -> unbalanced := !unbalanced + List.length !st) stacks;
  (List.rev !out, !unbalanced)

(* ---------- report sections ---------- *)

let fus us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else Printf.sprintf "%.1fms" (us /. 1e3)

let section title = Printf.printf "-- %s --\n" title

(* first-seen-order grouping of (key, value) pairs *)
let group_by key value items =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun it ->
      let k = key it in
      (match Hashtbl.find_opt tbl k with
      | Some l -> l := value it :: !l
      | None ->
        Hashtbl.replace tbl k (ref [ value it ]);
        order := k :: !order))
    items;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let top_level_table slices =
  let tops = List.filter (fun s -> s.s_depth = 0 && s.s_tid = 0) slices in
  if tops <> [] then begin
    section "top-level slices";
    let tbl =
      Tbl.create
        ~headers:
          [
            ("name", Tbl.Left);
            ("calls", Tbl.Right);
            ("total", Tbl.Right);
            ("mean", Tbl.Right);
          ]
    in
    List.iter
      (fun (name, durs) ->
        let n = List.length durs in
        let total = List.fold_left ( +. ) 0.0 durs in
        Tbl.add_row tbl
          [ name; string_of_int n; fus total; fus (total /. float_of_int n) ])
      (group_by (fun s -> s.s_name) (fun s -> s.s_dur) tops);
    print_string (Tbl.render tbl);
    print_newline ()
  end

(* Per-domain busy time inside "pool.chunk" slices over the shared pool
   window (first chunk start to last chunk end across all domains).
   Returns the mean utilization over participating domains, or None when
   the trace has no pool activity. *)
let pool_utilization slices =
  let chunks = List.filter (fun s -> s.s_name = "pool.chunk") slices in
  match chunks with
  | [] -> None
  | c0 :: _ ->
    let lo, hi =
      List.fold_left
        (fun (lo, hi) s ->
          (Float.min lo s.s_start, Float.max hi (s.s_start +. s.s_dur)))
        (c0.s_start, c0.s_start +. c0.s_dur)
        chunks
    in
    let window = Float.max (hi -. lo) 1.0 (* at least 1us: no div by 0 *) in
    section "pool utilization";
    let tbl =
      Tbl.create
        ~headers:
          [
            ("domain", Tbl.Left);
            ("chunks", Tbl.Right);
            ("busy", Tbl.Right);
            ("util", Tbl.Right);
          ]
    in
    let utils =
      List.map
        (fun (tid, durs) ->
          let busy = List.fold_left ( +. ) 0.0 durs in
          let util = 100.0 *. busy /. window in
          Tbl.add_row tbl
            [
              Printf.sprintf "domain-%d" tid;
              string_of_int (List.length durs);
              fus busy;
              Printf.sprintf "%.0f%%" util;
            ];
          util)
        (List.sort compare
           (group_by (fun s -> s.s_tid) (fun s -> s.s_dur) chunks))
    in
    print_string (Tbl.render tbl);
    print_newline ();
    let mean = List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils) in
    Printf.printf "pool window %s, mean utilization %.0f%% over %d domain(s)\n\n"
      (fus window) mean (List.length utils);
    Some mean

(* Engine banks emit one "engine.fused" Complete slice per sweep,
   carrying the number of cells fused into it: one summary line.  The
   slowest-groups table names the slow sweeps by their grid group. *)
let fused_sweeps slices =
  let fs = List.filter (fun s -> s.s_name = "engine.fused") slices in
  if fs <> [] then begin
    section "fused sweeps (engine.fused)";
    let cells = List.fold_left (fun acc s -> acc + s.s_bytes) 0 fs in
    Printf.printf "%d sweep(s) fusing %d cell(s), %.1f cells/sweep\n\n"
      (List.length fs) cells
      (float_of_int cells /. float_of_int (List.length fs))
  end

(* Simulation grids run each group of cells that share a layout as one
   fused sweep inside a "fused:<table> <layouts> [<cache>/<cfa>...]
   (<n> cells)" span. *)
let top_groups slices top =
  let groups =
    List.filter (fun s -> String.starts_with ~prefix:"fused:" s.s_name) slices
  in
  if groups <> [] then begin
    section (Printf.sprintf "slowest fused groups (top %d of %d)" top
       (List.length groups));
    let sorted =
      List.sort (fun a b -> compare b.s_dur a.s_dur) groups
    in
    let tbl =
      Tbl.create
        ~headers:
          [ ("group", Tbl.Left); ("domain", Tbl.Right); ("wall", Tbl.Right) ]
    in
    List.iteri
      (fun i s ->
        if i < top then
          Tbl.add_row tbl
            [ s.s_name; string_of_int s.s_tid; fus s.s_dur ])
      sorted;
    print_string (Tbl.render tbl);
    print_newline ()
  end

(* Nearest-rank percentile [p] (0 < p <= 1) of a non-empty list. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let store_split slices =
  let ops =
    List.filter
      (fun s -> String.starts_with ~prefix:"store." s.s_name)
      slices
  in
  if ops <> [] then begin
    section "store time split";
    let tbl =
      Tbl.create
        ~headers:
          [
            ("op", Tbl.Left);
            ("calls", Tbl.Right);
            ("total", Tbl.Right);
            ("p50", Tbl.Right);
            ("p99", Tbl.Right);
            ("bytes", Tbl.Right);
          ]
    in
    (* one store op is tens of microseconds *)
    let lat us = if us < 1e3 then Printf.sprintf "%.0fus" us else fus us in
    List.iter
      (fun (name, pairs) ->
        let durs = List.map fst pairs in
        let total = List.fold_left ( +. ) 0.0 durs in
        let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 pairs in
        Tbl.add_row tbl
          [
            name;
            string_of_int (List.length pairs);
            fus total;
            lat (percentile 0.5 durs);
            lat (percentile 0.99 durs);
            string_of_int bytes;
          ])
      (group_by (fun s -> s.s_name) (fun s -> (s.s_dur, s.s_bytes)) ops);
    print_string (Tbl.render tbl);
    print_newline ()
  end

(* The per-layer metrics a trace can supply, by their BENCHMARK.json
   names: [Some (value, slices)] from the slices the library emits, or
   [None] when no slice measures the layer. Seconds sum the matching
   slices' durations. *)
let layer slices name =
  let matching pred = List.filter (fun s -> pred s.s_name) slices in
  let secs pred =
    let ms = matching pred in
    let us = List.fold_left (fun acc s -> acc +. s.s_dur) 0.0 ms in
    Some (Printf.sprintf "%.3f" (us /. 1e6), List.length ms)
  in
  let named names n = List.mem n names in
  let fused = matching (String.equal "engine.fused") in
  let sweeps = List.length fused in
  match name with
  | "synth.build_s" -> secs (named [ "kernel-build" ])
  | "dbdata.generate_s" -> secs (named [ "datagen" ])
  | "db.load_s" -> secs (named [ "db-load" ])
  | "workload.record_s" -> secs (named [ "record-training"; "record-test" ])
  | "profile.build_s" -> secs (named [ "build-profile" ])
  | "layout.grid_s" -> secs (String.starts_with ~prefix:"layout-")
  | "cachesim.temperature_s" -> secs (named [ "cachesim.temperature" ])
  | "fetch.bank.replay_s" -> secs (named [ "engine.fused" ])
  | "fetch.bank.sweeps" -> Some (string_of_int sweeps, sweeps)
  | "fetch.bank.cells_per_sweep" ->
    let cells = List.fold_left (fun acc s -> acc + s.s_bytes) 0 fused in
    Some
      ( (if sweeps = 0 then "0"
         else
           Printf.sprintf "%.2f" (float_of_int cells /. float_of_int sweeps)),
        sweeps )
  | "store.read_s" -> secs (named [ "store.hit"; "store.miss" ])
  | "store.write_s" -> secs (named [ "store.write" ])
  | _ -> (
    (* layout.<slug>.s: that algorithm's layout-<slug> slices *)
    match String.split_on_char '.' name with
    | [ "layout"; slug; "s" ] -> secs (String.equal ("layout-" ^ slug))
    | _ -> None)

let read_file file =
  match
    let ic = open_in file in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    doc
  with
  | exception Sys_error e ->
    Printf.eprintf "trace_report: %s\n" e;
    exit 2
  | doc -> doc

(* (name, unit) of every per_layer metric of a benchmark spec *)
let spec_layers spec =
  let bad why =
    Printf.eprintf "trace_report: %s: %s\n" spec why;
    exit 2
  in
  match Json.of_string (String.trim (read_file spec)) with
  | exception Failure e -> bad e
  | j -> (
    match Json.member "per_layer" j with
    | Some (Json.List ls) ->
      List.map
        (fun l ->
          match (Json.member "name" l, Json.member "unit" l) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> bad "a per_layer entry lacks a name or unit")
        ls
    | _ -> bad "no per_layer list")

let layers_table slices spec =
  section (Printf.sprintf "per-layer metrics (%s)" spec);
  let tbl =
    Tbl.create
      ~headers:
        [
          ("metric", Tbl.Left);
          ("value", Tbl.Right);
          ("unit", Tbl.Left);
          ("slices", Tbl.Right);
        ]
  in
  List.iter
    (fun (name, unit) ->
      match layer slices name with
      | Some (v, n) -> Tbl.add_row tbl [ name; v; unit; string_of_int n ]
      | None -> Tbl.add_row tbl [ name; "not traced"; unit; "-" ])
    (spec_layers spec);
  print_string (Tbl.render tbl);
  print_newline ()

let () =
  let file, top, assert_util, layers = parse_args () in
  let doc = read_file file in
  let events =
    match Json.of_string (String.trim doc) with
    | exception Failure e ->
      Printf.eprintf "trace_report: %s: %s\n" file e;
      exit 2
    | Json.List evs -> List.map ev_of_json evs
    | _ ->
      Printf.eprintf "trace_report: %s: not a trace_event array\n" file;
      exit 2
  in
  let real = List.filter (fun e -> e.e_ph <> "M") events in
  if real = [] then begin
    Printf.eprintf "trace_report: %s: no events\n" file;
    exit 2
  end;
  let slices, unbalanced = slices real in
  let domains =
    List.sort_uniq compare (List.map (fun e -> e.e_tid) real)
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) e ->
        (Float.min lo e.e_ts, Float.max hi (e.e_ts +. e.e_dur)))
      (Float.max_float, 0.0) real
  in
  Printf.printf "%s: %d events on %d domain(s), wall clock %s\n" file
    (List.length real) (List.length domains)
    (fus (hi -. lo));
  if unbalanced > 0 then
    Printf.printf "(%d unbalanced begin/end event(s) — written mid-slice?)\n"
      unbalanced;
  print_newline ();
  top_level_table slices;
  let mean_util = pool_utilization slices in
  fused_sweeps slices;
  top_groups slices top;
  store_split slices;
  Option.iter (layers_table slices) layers;
  match assert_util with
  | None -> ()
  | Some pct -> (
    match mean_util with
    | Some mean when mean >= pct ->
      Printf.printf "utilization assertion: %.0f%% >= %.0f%% ok\n" mean pct
    | Some mean ->
      Printf.eprintf
        "trace_report: mean pool utilization %.0f%% below required %.0f%%\n"
        mean pct;
      exit 1
    | None ->
      Printf.eprintf
        "trace_report: --assert-utilization given but trace has no pool.chunk \
         slices\n";
      exit 1)
