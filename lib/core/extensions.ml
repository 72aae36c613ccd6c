module L = Stc_layout
module F = Stc_fetch
module P = Stc_profile
module E = Experiments
module Tbl = Stc_util.Tbl

(* A study runs its [plan] — (row tag, cell) pairs — through the one
   grid runner and gets (row tag, engine result) pairs back.  The study
   name is its span, progress label and event table. *)
let run_study ~ctx ~table plan =
  List.combine (List.map fst plan)
    (E.run_cells ~ctx ~label:table (List.map snd plan))

(* The STC thresholds of the paper's grid at one cache/CFA geometry. *)
let stc_params ~cache_kb ~cfa_kb =
  let c = E.default_sim_config in
  L.Algo.params ~exec_threshold:c.E.exec_threshold
    ~branch_threshold:c.E.branch_threshold ~cache_bytes:(cache_kb * 1024)
    ~cfa_bytes:(cfa_kb * 1024) ()

(* A profile's orig layout and its ops layout at one geometry. *)
let orig_ops (build : ?params:_ -> _) ~cache_kb ~cfa_kb =
  let orig = build "orig" in
  [ orig; build ~params:(stc_params ~cache_kb ~cfa_kb) "ops" ]

(* One cell per (layout, x), tagged with the layout's name and x. *)
let sweep layouts xs cell =
  List.concat_map
    (fun layout ->
      List.map (fun x -> ((layout.L.Layout.name, x), cell x layout)) xs)
    layouts

let profile_of program trace =
  let p = P.Profile.create program in
  Stc_trace.Source.iter (Stc_trace.Source.of_recorder trace) (P.Profile.sink p);
  p

(* ---------- inlining ---------- *)

type inline_row = {
  i_variant : string;
  i_layout : string;
  i_miss : float;
  i_ipc : float;
  i_ibt : float;
}

type inline_report = {
  inl_sites : int;
  inl_growth_pct : float;
  inl_rows : inline_row list;
}

let inlining ?(ctx = Run.default) ?config ?(cache_kb = 32) ?(cfa_kb = 8)
    (pl : Pipeline.t) =
  let table = "ext-inlining" in
  Run.span ctx table @@ fun () ->
  let tr = L.Inline.transform ?config pl.Pipeline.profile in
  let inl_prog = L.Inline.program tr in
  let inl_train = L.Inline.remap_trace tr pl.Pipeline.training in
  (* each program's layouts come from its own profile *)
  let variant name subject build =
    sweep (orig_ops build ~cache_kb ~cfa_kb) [ name ] (fun _ ->
        E.cell ~table subject ~cache_kb)
  in
  let base = variant "base" (E.test_subject pl) (E.pipeline_layouts ~ctx pl) in
  let inlined =
    variant "inlined"
      { E.program = inl_prog; trace = L.Inline.remap_trace tr pl.Pipeline.test }
      (E.layout_builder ~ctx ~training:inl_train
         (profile_of inl_prog inl_train))
  in
  {
    inl_sites = L.Inline.inlined_sites tr;
    inl_growth_pct = L.Inline.code_growth_pct tr;
    inl_rows =
      List.map
        (fun ((i_layout, i_variant), r) ->
          {
            i_variant;
            i_layout;
            i_miss = F.Engine.miss_rate_pct r;
            i_ipc = F.Engine.bandwidth r;
            i_ibt = r.F.Engine.instrs_between_taken;
          })
        (run_study ~ctx ~table (base @ inlined));
  }

let print_inlining r =
  Printf.printf
    "Function inlining (Section 8 future work): %d call sites inlined,\n\
     +%.1f%% static code.\n"
    r.inl_sites r.inl_growth_pct;
  let t =
    Tbl.create
      ~headers:
        [
          ("program", Tbl.Left);
          ("layout", Tbl.Left);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
          ("instrs between taken", Tbl.Right);
        ]
  in
  List.iter
    (fun row ->
      Tbl.add_row t
        [
          row.i_variant;
          row.i_layout;
          Tbl.fmiss row.i_miss;
          Tbl.f2 row.i_ipc;
          Tbl.fpct row.i_ibt;
        ])
    r.inl_rows;
  Tbl.print t

(* ---------- OLTP ---------- *)

type oltp_row = { o_layout : string; o_miss : float; o_ipc : float; o_ibt : float }

type oltp_report = {
  oltp_trace_blocks : int;
  oltp_cache_kb : int;
  oltp_rows : oltp_row list;
}

let oltp ?(ctx = Run.default) ?(train_txns = 300) ?(test_txns = 600)
    ?(cache_kb = 16) (pl : Pipeline.t) =
  let table = "ext-oltp" in
  Run.span ctx table @@ fun () ->
  let kernel = pl.Pipeline.kernel in
  let db = pl.Pipeline.db_btree in
  let train_mix = Stc_workload.Oltp.mix db ~seed:0xB0B1L ~n:train_txns in
  let test_mix = Stc_workload.Oltp.mix db ~seed:0xB0B2L ~n:test_txns in
  let train =
    Stc_workload.Oltp.record ~kernel ~walker_seed:0x01AFL ~db ~txns:train_mix
  in
  let test =
    Stc_workload.Oltp.record ~kernel ~walker_seed:0x02AFL ~db ~txns:test_mix
  in
  (* trained on the OLTP mix, so keyed apart from the DSS layouts *)
  let profile = profile_of pl.Pipeline.program train in
  let build = E.layout_builder ~ctx ~training:train profile in
  let params = stc_params ~cache_kb ~cfa_kb:4 in
  let orig = build "orig" in
  let ph = build "P&H" in
  let auto = build ~params "auto" in
  let layouts = [ orig; ph; auto; build ~params "ops" ] in
  let subject = { E.program = pl.Pipeline.program; trace = test } in
  let plan =
    sweep layouts [ () ] (fun () -> E.cell ~table subject ~cache_kb)
  in
  {
    oltp_trace_blocks = Stc_trace.Recorder.length test;
    oltp_cache_kb = cache_kb;
    oltp_rows =
      List.map
        (fun ((o_layout, ()), r) ->
          {
            o_layout;
            o_miss = F.Engine.miss_rate_pct r;
            o_ipc = F.Engine.bandwidth r;
            o_ibt = r.F.Engine.instrs_between_taken;
          })
        (run_study ~ctx ~table plan);
  }

let print_oltp r =
  Printf.printf
    "OLTP transaction mix (Section 8 future work), %d traced blocks,\n\
     %dKB i-cache; layouts trained on a disjoint mix:\n"
    r.oltp_trace_blocks r.oltp_cache_kb;
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
          ("instrs between taken", Tbl.Right);
        ]
  in
  List.iter
    (fun row ->
      Tbl.add_row t
        [ row.o_layout; Tbl.fmiss row.o_miss; Tbl.f2 row.o_ipc; Tbl.fpct row.o_ibt ])
    r.oltp_rows;
  Tbl.print t

(* ---------- branch prediction sensitivity ---------- *)

type prediction_row = {
  p_layout : string;
  p_predictor : string;
  p_accuracy : float;
  p_ipc : float;
}

(* [Predictor.accuracy_pct]'s expression, from a (storable) result *)
let accuracy_pct (r : F.Engine.result) =
  let n = r.F.Engine.cond_branches in
  if n = 0 then 100.0
  else 100.0 *. float_of_int (n - r.F.Engine.mispredictions) /. float_of_int n

let prediction ?(ctx = Run.default) ?(cache_kb = 32) ?(cfa_kb = 8)
    (pl : Pipeline.t) =
  let table = "ext-prediction" in
  Run.span ctx table @@ fun () ->
  let layouts = orig_ops (E.pipeline_layouts ~ctx pl) ~cache_kb ~cfa_kb in
  let predictors =
    [
      ("perfect", None);
      ("always-taken", Some F.Predictor.Always_taken);
      ("bimodal-2K", Some (F.Predictor.Bimodal 2048));
      ("gshare-4K/8", Some (F.Predictor.Gshare (4096, 8)));
    ]
  in
  let subject = E.test_subject pl in
  let plan =
    sweep layouts predictors (fun (_, kind) ->
        E.cell ~table subject
          ?predictor:(Option.map (fun k -> (k, 3)) kind)
          ~cache_kb)
  in
  List.map
    (fun ((p_layout, (p_predictor, _)), r) ->
      {
        p_layout;
        p_predictor;
        p_accuracy = accuracy_pct r;
        p_ipc = F.Engine.bandwidth r;
      })
    (run_study ~ctx ~table plan)

let print_prediction rows =
  print_endline
    "Branch prediction sensitivity (the paper isolates I-fetch with\n\
     perfect prediction; 3-cycle redirect penalty here):";
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("predictor", Tbl.Left);
          ("direction accuracy", Tbl.Right);
          ("IPC", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.p_layout; r.p_predictor; Tbl.fpct r.p_accuracy ^ "%"; Tbl.f2 r.p_ipc ])
    rows;
  Tbl.print t

(* ---------- per-query breakdown ---------- *)

type query_row = {
  q_name : string;
  q_blocks : int;
  q_cache_kb : int;
  q_miss_orig : float;
  q_miss_ops : float;
}

let per_query ?(ctx = Run.default) ?(cache_kb = 16) (pl : Pipeline.t) =
  let table = "ext-per-query" in
  Run.span ctx table @@ fun () ->
  let layouts = orig_ops (E.pipeline_layouts ~ctx pl) ~cache_kb ~cfa_kb:4 in
  let marks = Stc_trace.Recorder.marks pl.Pipeline.test in
  let total = Stc_trace.Recorder.length pl.Pipeline.test in
  (* one subject per query section, shared by its two cells *)
  let plan =
    List.concat
      (List.mapi
         (fun i (name, lo) ->
           let hi =
             match List.nth_opt marks (i + 1) with
             | Some (_, next) -> next
             | None -> total
           in
           let section = Stc_trace.Recorder.create () in
           Stc_trace.Source.iter
             (Stc_trace.Source.of_recorder ~lo ~hi pl.Pipeline.test)
             (Stc_trace.Recorder.sink section);
           let subject = { E.program = pl.Pipeline.program; trace = section } in
           sweep layouts [ (name, hi - lo) ] (fun _ ->
               E.cell ~table subject ~cache_kb))
         marks)
  in
  let rec rows = function
    | ((_, (q_name, q_blocks)), o) :: (_, s) :: rest ->
      {
        q_name;
        q_blocks;
        q_cache_kb = cache_kb;
        q_miss_orig = F.Engine.miss_rate_pct o;
        q_miss_ops = F.Engine.miss_rate_pct s;
      }
      :: rows rest
    | _ -> []
  in
  rows (run_study ~ctx ~table plan)

(* the cache size a study's rows were run at (all rows share it) *)
let rows_cache_kb get = function r :: _ -> get r | [] -> 0

let print_per_query rows =
  Printf.printf "Per-query i-cache miss rates (%dKB, cold start per query):\n"
    (rows_cache_kb (fun r -> r.q_cache_kb) rows);
  let t =
    Tbl.create
      ~headers:
        [
          ("query", Tbl.Left);
          ("blocks", Tbl.Right);
          ("orig miss %", Tbl.Right);
          ("ops miss %", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.q_name;
          string_of_int r.q_blocks;
          Tbl.fmiss r.q_miss_orig;
          Tbl.fmiss r.q_miss_ops;
        ])
    rows;
  Tbl.print t

(* ---------- fetch unit family ---------- *)

type seqn_row = { s_layout : string; s_max_branches : int; s_ipc : float }

let fetch_units ?(ctx = Run.default) ?(cache_kb = 16) (pl : Pipeline.t) =
  let table = "ext-fetch-units" in
  Run.span ctx table @@ fun () ->
  let layouts = orig_ops (E.pipeline_layouts ~ctx pl) ~cache_kb ~cfa_kb:4 in
  let subject = E.test_subject pl in
  let plan =
    sweep layouts [ 1; 2; 3 ] (fun n ->
        E.cell ~table subject
          ~config:(F.Engine.Config.make ~max_branches:n ())
          ~cache_kb)
  in
  List.map
    (fun ((s_layout, s_max_branches), r) ->
      { s_layout; s_max_branches; s_ipc = F.Engine.bandwidth r })
    (run_study ~ctx ~table plan)

let print_fetch_units rows =
  print_endline
    "Sequential fetch-engine family (SEQ.n = up to n branches per fetch):";
  let t =
    Tbl.create
      ~headers:
        [ ("layout", Tbl.Left); ("SEQ.1", Tbl.Right); ("SEQ.2", Tbl.Right); ("SEQ.3", Tbl.Right) ]
  in
  List.iter
    (fun layout ->
      let get n =
        match
          List.find_opt
            (fun r -> r.s_layout = layout && r.s_max_branches = n)
            rows
        with
        | Some r -> Tbl.f2 r.s_ipc
        | None -> "-"
      in
      Tbl.add_row t [ layout; get 1; get 2; get 3 ])
    [ "orig"; "ops" ];
  Tbl.print t

(* ---------- associativity interaction ---------- *)

type assoc_row = {
  a_layout : string;
  a_assoc : int;
  a_cache_kb : int;
  a_miss : float;
  a_ipc : float;
}

let associativity ?(ctx = Run.default) ?(cache_kb = 16) (pl : Pipeline.t) =
  let table = "ext-associativity" in
  Run.span ctx table @@ fun () ->
  let layouts = orig_ops (E.pipeline_layouts ~ctx pl) ~cache_kb ~cfa_kb:4 in
  let subject = E.test_subject pl in
  let plan =
    sweep layouts [ 1; 2; 4 ] (fun assoc ->
        E.cell ~table subject ~assoc ~cache_kb)
  in
  List.map
    (fun ((a_layout, a_assoc), r) ->
      {
        a_layout;
        a_assoc;
        a_cache_kb = cache_kb;
        a_miss = F.Engine.miss_rate_pct r;
        a_ipc = F.Engine.bandwidth r;
      })
    (run_study ~ctx ~table plan)

let print_associativity rows =
  Printf.printf
    "Layout x associativity (%dKB): how much of the software layout's\n\
     benefit survives a set-associative cache:\n"
    (rows_cache_kb (fun r -> r.a_cache_kb) rows);
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("assoc", Tbl.Right);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.a_layout; string_of_int r.a_assoc; Tbl.fmiss r.a_miss; Tbl.f2 r.a_ipc ])
    rows;
  Tbl.print t

(* ---------- tuning ---------- *)

type tuning_report = {
  tu_outcome : Tuner.outcome;
  tu_held_out : (string * float * float) list;
}

let tuning ?(ctx = Run.default) ?(cache_kb = 32) (pl : Pipeline.t) =
  let table = "ext-tuning" in
  Run.span ctx table @@ fun () ->
  let tu_outcome = Tuner.tune ~ctx ~cache_kb pl in
  (* held-out evaluation on Test *)
  let build = E.pipeline_layouts ~ctx pl in
  let tuned = Tuner.layout_of ~ctx pl ~cache_kb tu_outcome.Tuner.chosen in
  let hand = build ~params:(stc_params ~cache_kb ~cfa_kb:8) "ops" in
  let orig = build "orig" in
  let subject = E.test_subject pl in
  let plan =
    List.map
      (fun (name, layout) -> (name, E.cell ~table subject ~cache_kb layout))
      [
        ("tuned", tuned);
        ("hand-picked (ops 50/0.3)", hand);
        ("original", orig);
      ]
  in
  {
    tu_outcome;
    tu_held_out =
      List.map
        (fun (name, r) ->
          (name, F.Engine.bandwidth r, F.Engine.miss_rate_pct r))
        (run_study ~ctx ~table plan);
  }

let print_tuning r =
  let outcome = r.tu_outcome in
  let c = outcome.Tuner.chosen in
  Printf.printf
    "Automatic threshold selection (%d candidates, scored on Training):\n\
     chosen: seeds=%s ExecThresh=%d BranchThresh=%.2f CFA=%dKB\n\
     (training bandwidth %.2f IPC)\n"
    outcome.Tuner.evaluated
    (match c.Tuner.t_seeds with `Auto -> "auto" | `Ops -> "ops")
    c.Tuner.t_exec c.Tuner.t_branch c.Tuner.t_cfa_kb
    outcome.Tuner.train_bandwidth;
  List.iter
    (fun (name, ipc, miss) ->
      Printf.printf "  %-24s %5.2f IPC, %5.2f miss%% on Test\n" name ipc miss)
    r.tu_held_out

(* ---------- all studies ---------- *)

let print_all ?(ctx = Run.default) pl =
  print_inlining (inlining ~ctx pl);
  print_newline ();
  print_oltp (oltp ~ctx pl);
  print_newline ();
  print_prediction (prediction ~ctx pl);
  print_newline ();
  print_tuning (tuning ~ctx pl);
  print_newline ();
  print_per_query (per_query ~ctx pl);
  print_newline ();
  print_fetch_units (fetch_units ~ctx pl);
  print_newline ();
  print_associativity (associativity ~ctx pl)
