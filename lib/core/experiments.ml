module P = Stc_profile
module L = Stc_layout
module F = Stc_fetch
module Tbl = Stc_util.Tbl

(* ---------- characterization ---------- *)

let table1 (pl : Pipeline.t) = P.Footprint.compute pl.Pipeline.profile

let print_table1 (fp : P.Footprint.t) =
  let t =
    Tbl.create
      ~headers:
        [ ("", Tbl.Left); ("Total", Tbl.Right); ("Executed", Tbl.Right); ("Percent", Tbl.Right) ]
  in
  let open P.Footprint in
  Tbl.add_row t
    [
      "Procedures";
      string_of_int fp.procs_total;
      string_of_int fp.procs_executed;
      Tbl.fpct (pct fp.procs_executed fp.procs_total) ^ "%";
    ];
  Tbl.add_row t
    [
      "Basic blocks";
      string_of_int fp.blocks_total;
      string_of_int fp.blocks_executed;
      Tbl.fpct (pct fp.blocks_executed fp.blocks_total) ^ "%";
    ];
  Tbl.add_row t
    [
      "Instructions";
      string_of_int fp.instrs_total;
      string_of_int fp.instrs_executed;
      Tbl.fpct (pct fp.instrs_executed fp.instrs_total) ^ "%";
    ];
  print_endline "Table 1. Static program elements and the fraction used.";
  Tbl.print t

let print_figure2 (pl : Pipeline.t) =
  let pop = P.Popularity.compute pl.Pipeline.profile in
  let t =
    Tbl.create ~headers:[ ("Blocks", Tbl.Right); ("Cumulative references", Tbl.Right) ]
  in
  List.iter
    (fun (n, share) ->
      Tbl.add_row t [ string_of_int n; Tbl.fpct (100.0 *. share) ^ "%" ])
    (P.Popularity.curve pop ~max_blocks:3000 ~step:250);
  print_endline
    "Figure 2. Percentage of dynamic basic block references captured by";
  print_endline "the N most popular static blocks.";
  Tbl.print t;
  Printf.printf "90%% of references in %d blocks; 99%% in %d blocks (of %d executed)\n"
    (P.Popularity.blocks_for_share pop 0.90)
    (P.Popularity.blocks_for_share pop 0.99)
    (P.Popularity.executed_blocks pop)

type reuse_stats = { below_100 : float; below_250 : float; samples : int }

(* the popularity share of the blocks whose reuse is tracked *)
let reuse_share = 0.75

let reuse (pl : Pipeline.t) =
  let member = P.Reuse.popular_set pl.Pipeline.profile ~share:reuse_share in
  let r = P.Reuse.create pl.Pipeline.program ~member in
  Pipeline.replay_training pl (P.Reuse.sink r);
  {
    below_100 = P.Reuse.mass_below r 100;
    below_250 = P.Reuse.mass_below r 250;
    samples = P.Reuse.samples r;
  }

let print_reuse r =
  Printf.printf
    "Temporal reuse (Section 4.1): of the blocks concentrating %.0f%% of the\n\
     references, re-execution happens within 100 instructions with\n\
     probability %.0f%%, and within 250 instructions with probability %.0f%%\n\
     (%d re-invocation intervals).\n"
    (100.0 *. reuse_share)
    (100.0 *. r.below_100)
    (100.0 *. r.below_250)
    r.samples

let table2 (pl : Pipeline.t) = P.Determinism.compute pl.Pipeline.profile

let print_table2 (d : P.Determinism.t) =
  let t =
    Tbl.create
      ~headers:
        [
          ("BB Type", Tbl.Left);
          ("Static", Tbl.Right);
          ("Dynamic", Tbl.Right);
          ("Predictable", Tbl.Right);
        ]
  in
  List.iter
    (fun (r : P.Determinism.row) ->
      Tbl.add_row t
        [
          Stc_cfg.Terminator.kind_name r.P.Determinism.kind;
          Tbl.fpct r.static_pct ^ "%";
          Tbl.fpct r.dynamic_pct ^ "%";
          Tbl.fpct r.predictable_pct ^ "%";
        ])
    d.P.Determinism.rows;
  print_endline "Table 2. Executed basic blocks by type, and fixed behaviour.";
  Tbl.print t;
  Printf.printf "Overall, %.1f%% of the basic block transitions are predictable.\n"
    d.P.Determinism.overall_predictable_pct

(* ---------- simulation ---------- *)

type sim_config = {
  exec_threshold : int;
  branch_threshold : float;
  line_bytes : int;
  miss_penalty : int;
  tc_entries : int;
  grid : (int * int list) list;
}

let default_sim_config =
  {
    exec_threshold = 50;
    branch_threshold = 0.3;
    line_bytes = 32;
    miss_penalty = 5;
    tc_entries = 256;
    grid = [ (8, [ 2; 4; 6 ]); (16, [ 4; 8; 12 ]); (32, [ 4; 8; 16; 24 ]); (64, [ 8; 16; 24 ]) ];
  }

type variant = Direct | Two_way | Victim | Ideal | Trace_cache | Tc_ideal

(* Stable export names, used in JSONL cell records. *)
let variant_name = function
  | Direct -> "direct"
  | Two_way -> "2-way"
  | Victim -> "victim"
  | Ideal -> "ideal"
  | Trace_cache -> "trace-cache"
  | Tc_ideal -> "tc-ideal"

type row = {
  layout : string;
  cache_kb : int;
  cfa_kb : int option;
  variant : variant;
  miss_pct : float;
  bandwidth : float;
  instrs_between_taken : float;
  tc_hit_pct : float;
  assoc : int;
  policy : string;
  prefetch : bool;
  evictions : int;
  pf_issued : int;
  pf_useful : int;
  pf_late : int;
}

let row_to_string r =
  Printf.sprintf "%s cache=%d cfa=%s %s miss=%.6f bw=%.6f ibt=%.6f tc=%.6f"
    r.layout r.cache_kb
    (match r.cfa_kb with Some k -> string_of_int k | None -> "-")
    (variant_name r.variant) r.miss_pct r.bandwidth r.instrs_between_taken
    r.tc_hit_pct

let ext_row_to_string r =
  Printf.sprintf
    "%s cache=%d cfa=%s assoc=%d policy=%s prefetch=%d miss=%.6f bw=%.6f \
     evict=%d pf_issued=%d pf_useful=%d pf_late=%d"
    r.layout r.cache_kb
    (match r.cfa_kb with Some k -> string_of_int k | None -> "-")
    r.assoc r.policy
    (if r.prefetch then 1 else 0)
    r.miss_pct r.bandwidth r.evictions r.pf_issued r.pf_useful r.pf_late

let policy_name = function
  | Stc_cachesim.Icache.Lru -> "lru"
  | Stc_cachesim.Icache.Srrip -> "srrip"
  | Stc_cachesim.Icache.Trrip _ -> "trrip"

let predictor_name = function
  | F.Predictor.Always_taken -> "always-taken"
  | F.Predictor.Bimodal n -> Printf.sprintf "bimodal-%d" n
  | F.Predictor.Gshare (n, h) -> Printf.sprintf "gshare-%d/%d" n h

(* ---------- the grid runner ----------

   Every simulation of every table and study is a [cell]: one replay of
   a subject (a program plus a trace recorded against it) under one
   layout and one machine, run by {!exec_cells}. *)

type subject = { program : Stc_cfg.Program.t; trace : Stc_trace.Recorder.t }

let test_subject (pl : Pipeline.t) =
  { program = pl.Pipeline.program; trace = pl.Pipeline.test }

type cell = {
  c_table : string;
  c_subject : subject;
  c_layout : L.Layout.t;
  c_engine : F.Engine.Config.t;
  c_tc_entries : int;
  c_variant : variant;
  c_cache_kb : int;
  c_cfa_kb : int option;
  c_assoc : int;
      (* associativity of Direct/Trace_cache variants (the extended grid
         runs them 4-way); 1 = the paper's machine *)
  c_policy : Stc_cachesim.Icache.policy;
  c_predictor : (F.Predictor.kind * int) option;
      (* direction predictor and redirect penalty; [None] = perfect *)
}

let cell ?(config = F.Engine.Config.default) ?(assoc = 1) ?predictor ~table
    subject ~cache_kb layout =
  {
    c_table = table;
    c_subject = subject;
    c_layout = layout;
    c_engine = config;
    c_tc_entries = default_sim_config.tc_entries;
    c_variant = Direct;
    c_cache_kb = cache_kb;
    c_cfa_kb = None;
    c_assoc = assoc;
    c_policy = Stc_cachesim.Icache.Lru;
    c_predictor = predictor;
  }

(* A Table 3/4-style cell on the Test trace, its machine drawn from the
   grid-wide [sim_config]. *)
let grid_cell ~table (pl : Pipeline.t) (config : sim_config) ?assoc
    ?(policy = Stc_cachesim.Icache.Lru) ?fdip layout variant ~cache_kb ~cfa_kb
    =
  let config' =
    F.Engine.Config.make ~line_bytes:config.line_bytes
      ~miss_penalty:config.miss_penalty ?fdip ()
  in
  {
    (cell ~config:config' ?assoc ~table (test_subject pl) ~cache_kb layout) with
    c_tc_entries = config.tc_entries;
    c_variant = variant;
    c_cfa_kb = cfa_kb;
    c_policy = policy;
  }

(* A cell's result as [engine.*] counters, with one tick of
   [engine.runs]. The prefetch/replacement family is published only when
   live, so an export of the paper's configurations alone carries none
   of it; results are deterministic, hence so is the condition. The
   pattern binds every field, so a new one does not compile until it is
   published or given a reason. *)
let publish_result reg
    F.Engine.
      { instrs; cycles; fetch_cycles; seq_cycles; tc_cycles; icache_accesses;
        icache_misses; icache_victim_hits; tc_lookups; tc_hits; cond_branches;
        mispredictions; icache_evictions; prefetch_issued; prefetch_completed;
        prefetch_late; prefetch_useful;
        (* never a counter: the row's instrs_between_taken derives from it *)
        taken_branches = _;
        (* a ratio, which a counter cannot sum; the cell event carries it *)
        instrs_between_taken = _ } =
  let add name v = Stc_obs.Registry.add reg ("engine." ^ name) v in
  add "instrs" instrs;
  add "cycles" cycles;
  add "fetch_cycles" fetch_cycles;
  add "seq_cycles" seq_cycles;
  add "tc_cycles" tc_cycles;
  add "icache_accesses" icache_accesses;
  add "icache_misses" icache_misses;
  add "icache_victim_hits" icache_victim_hits;
  add "tc_lookups" tc_lookups;
  add "tc_hits" tc_hits;
  add "cond_branches" cond_branches;
  add "mispredictions" mispredictions;
  let addnz name v = if v <> 0 then add name v in
  addnz "icache.replacement.evictions" icache_evictions;
  addnz "prefetch.issued" prefetch_issued;
  addnz "prefetch.completed" prefetch_completed;
  addnz "prefetch.late" prefetch_late;
  addnz "prefetch.useful" prefetch_useful;
  add "runs" 1

(* The event fields come from the engine result, the only place a
   cell's cache statistics exist, so a store hit (which never builds the
   cache) emits the exact record a simulation would have. The pattern
   binds every field, as [publish_result]'s does. *)
let emit_cell reg cell (row : row)
    F.Engine.
      { instrs; cycles; icache_accesses; icache_misses; icache_victim_hits;
        tc_lookups; tc_hits; cond_branches; mispredictions;
        (* the engine.* counters carry the cycle split *)
        fetch_cycles = _; seq_cycles = _; tc_cycles = _;
        (* [row] carries these, as cell_row derived them *)
        instrs_between_taken = _; icache_evictions = _; prefetch_issued = _;
        prefetch_useful = _; prefetch_late = _;
        (* only engine.prefetch.completed carries it *)
        prefetch_completed = _;
        (* never exported: instrs_between_taken derives from it *)
        taken_branches = _ } =
  let has_icache =
    match cell.c_variant with Ideal | Tc_ideal -> false | _ -> true
  in
  let open Stc_obs.Json in
  let icache_fields =
    if not has_icache then []
    else
      [
        ("icache_accesses", Int icache_accesses);
        ("icache_misses", Int icache_misses);
        ("icache_victim_hits", Int icache_victim_hits);
      ]
  in
  (* present only on non-default replacement/prefetch cells, so every
     pre-existing cell's event record stays byte-identical *)
  let extended_fields =
    if (not row.prefetch) && String.equal row.policy "lru" then []
    else
      [
        ("assoc", Int row.assoc);
        ("policy", Str row.policy);
        ("prefetch", Bool row.prefetch);
        ("evictions", Int row.evictions);
        ("pf_issued", Int row.pf_issued);
        ("pf_useful", Int row.pf_useful);
        ("pf_late", Int row.pf_late);
      ]
  in
  (* likewise only on the study dimensions the paper grids never vary *)
  let study_fields =
    (match cell.c_engine.F.Engine.Config.max_branches with
    | 3 -> []
    | n -> [ ("max_branches", Int n) ])
    @
    match cell.c_predictor with
    | None -> []
    | Some (kind, _) ->
      [
        ("predictor", Str (predictor_name kind));
        ("cond_branches", Int cond_branches);
        ("mispredictions", Int mispredictions);
      ]
  in
  Stc_obs.Registry.event reg ~kind:(cell.c_table ^ ".cell")
    ([
       ("layout", Str row.layout);
       ("variant", Str (variant_name row.variant));
       ("cache_kb", Int row.cache_kb);
       ("cfa_kb", (match row.cfa_kb with Some k -> Int k | None -> Null));
       ("instrs", Int instrs);
       ("cycles", Int cycles);
       ("miss_pct", Float row.miss_pct);
       ("bandwidth", Float row.bandwidth);
       ("instrs_between_taken", Float row.instrs_between_taken);
       ("tc_lookups", Int tc_lookups);
       ("tc_hits", Int tc_hits);
     ]
    @ icache_fields @ extended_fields @ study_fields)

(* What determines a cell's engine result beyond the (program, trace,
   layout, engine-config) fingerprints: the cache geometry implied by the
   variant and the trace-cache size — plus, only when non-default so
   historical keys stay unchanged, the associativity and replacement
   policy of the extended grid and the direction predictor. *)
let cell_key ~prog_fp ~trace_fp cell =
  let extended_parts =
    (if cell.c_assoc = 1 then []
     else [ "assoc=" ^ string_of_int cell.c_assoc ])
    @ (match cell.c_policy with
      | Stc_cachesim.Icache.Lru -> []
      | Stc_cachesim.Icache.Srrip -> [ "policy=srrip" ]
      | Stc_cachesim.Icache.Trrip temps ->
        [ "policy=trrip"; Stc_store.Fp.int_array temps ])
    @
    match cell.c_predictor with
    | None -> []
    | Some (kind, penalty) ->
      [
        "predictor=" ^ predictor_name kind;
        "redirect=" ^ string_of_int penalty;
      ]
  in
  Stc_store.Key.of_parts
    ([
       "experiments-cell";
       prog_fp;
       trace_fp;
       Stc_store.Fp.layout cell.c_layout;
       Stc_store.Fp.engine_config cell.c_engine;
       variant_name cell.c_variant;
       string_of_int cell.c_cache_kb;
       string_of_int cell.c_tc_entries;
     ]
    @ extended_parts)

(* The cache geometry a cell's variant implies, and its predictor.  Fresh
   instances per call — the engine owns their state for the replay — so
   a cell's bank slot can run on any domain. *)
let cell_spec cell =
  let size_bytes = cell.c_cache_kb * 1024 in
  (* the engine's line is the i-cache's: SEQ.3 fetches a two-line window *)
  let line_bytes = cell.c_engine.F.Engine.Config.line_bytes in
  let icache =
    match cell.c_variant with
    | Ideal | Tc_ideal -> None
    | Direct | Trace_cache ->
      (* the extended grid and the studies vary associativity (and the
         extended grid policy) on these two variants; the defaults
         reproduce the paper's machine exactly *)
      Some
        (Stc_cachesim.Icache.create ~assoc:cell.c_assoc ~line_bytes
           ~policy:cell.c_policy ~size_bytes ())
    | Two_way ->
      Some (Stc_cachesim.Icache.create ~assoc:2 ~line_bytes ~size_bytes ())
    | Victim ->
      Some
        (Stc_cachesim.Icache.create ~victim_lines:16 ~line_bytes ~size_bytes
           ())
  in
  let trace_cache =
    match cell.c_variant with
    | Trace_cache | Tc_ideal ->
      Some (F.Tracecache.create ~entries:cell.c_tc_entries ())
    | Direct | Two_way | Victim | Ideal -> None
  in
  let prediction =
    Option.map
      (fun (kind, redirect_penalty) ->
        { F.Engine.pred = F.Predictor.create kind; redirect_penalty })
      cell.c_predictor
  in
  F.Engine.Bank.spec ~config:cell.c_engine ?icache ?trace_cache ?prediction ()

(* A cell's row, derived from its engine result. *)
let cell_row cell r =
  {
    layout = cell.c_layout.L.Layout.name;
    cache_kb =
      (match cell.c_variant with
      | Ideal | Tc_ideal -> 0
      | _ -> cell.c_cache_kb);
    cfa_kb = cell.c_cfa_kb;
    variant = cell.c_variant;
    miss_pct = F.Engine.miss_rate_pct r;
    bandwidth = F.Engine.bandwidth r;
    instrs_between_taken = r.F.Engine.instrs_between_taken;
    tc_hit_pct =
      (if r.F.Engine.tc_lookups = 0 then 0.0
       else
         100.0 *. float_of_int r.F.Engine.tc_hits
         /. float_of_int r.F.Engine.tc_lookups);
    assoc =
      (match cell.c_variant with Two_way -> 2 | _ -> cell.c_assoc);
    policy = policy_name cell.c_policy;
    prefetch = Option.is_some cell.c_engine.F.Engine.Config.fdip;
    evictions = r.F.Engine.icache_evictions;
    pf_issued = r.F.Engine.prefetch_issued;
    pf_useful = r.F.Engine.prefetch_useful;
    pf_late = r.F.Engine.prefetch_late;
  }

(* ---------- fused execution ----------

   The planned cells are re-grouped by (subject, layout content) in
   first-appearance order, and each group's cold cells replay as one
   {!F.Engine.Bank} sweep, so the group's trace is packed and walked
   once instead of once per cell (packed straight from the recorder's
   chunks into the bank's window; no image of the whole trace is
   built).  The subject is compared by physical identity.  A layout is
   compared by its address array, since that is all a replay sees of it
   (the paper feeds the simulators "faked" block addresses): layouts
   built separately that place every block at the same address (e.g.
   STC's auto and ops layouts, or one algorithm at two cache sizes)
   share one sweep.  Each physical layout is fingerprinted once, and two
   layouts merge only if their arrays are also equal, so a hash
   collision cannot merge different layouts; a layout object may be
   shared by several subjects, as the per-query study's trace sections
   share the orig/ops layouts.

   Everything a cell observes is independent of the grouping: its row
   (named after its own layout), its store key, its warm-hit
   short-circuit (a store-warm cell is dropped from the bank before the
   sweep), and what it publishes.  Groups only compute: each cell gets
   its own store handle, and after the join the runner publishes every
   cell's handle, [engine.*] counters and cell event into the one
   registry in cell {e input} order, so rows, metric exports and golden
   snapshots are byte-identical at any [--jobs]. *)

type fgroup = {
  g_subject : subject;
  g_layout : L.Layout.t; (* the first member's; every member's is equal *)
  g_cells : int array; (* input indices *)
}

(* [f] applied once per physically distinct argument. *)
let memo_phys f =
  let seen = ref [] in
  fun x ->
    match List.assq_opt x !seen with
    | Some v -> v
    | None ->
      let v = f x in
      seen := (x, v) :: !seen;
      v

let fused_groups cells =
  let fp = memo_phys Stc_store.Fp.layout in
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      let l = c.c_layout and h = fp c.c_layout in
      let same (s, gl, gh, _) =
        s.program == c.c_subject.program
        && s.trace == c.c_subject.trace
        && String.equal gh h
        && (gl == l || gl.L.Layout.addr = l.L.Layout.addr)
      in
      match List.find_opt same !acc with
      | Some (_, _, _, members) -> members := i :: !members
      | None -> acc := !acc @ [ (c.c_subject, l, h, ref [ i ]) ])
    cells;
  Array.of_list
    (List.map
       (fun (s, l, _, members) ->
         {
           g_subject = s;
           g_layout = l;
           g_cells = Array.of_list (List.rev !members);
         })
       !acc)

(* e.g. "fused:table34 ops 32/16+64/16 (8 cells)": every layout name the
   group serves, then every <cache>/<cfa> point of its cells that have a
   CFA, each in first-appearance order; a group without a CFA names its
   layouts only ("fused:table34 orig (18 cells)").  The grid point is
   named as far as the cells carry it: the ablation's sweep points differ
   in STC thresholds no cell holds, so several of its groups share a
   label. *)
let fgroup_label cells g =
  let distinct f =
    Array.fold_left
      (fun acc i ->
        match f cells.(i) with
        | Some x when not (List.mem x acc) -> x :: acc
        | _ -> acc)
      [] g.g_cells
    |> List.rev |> String.concat "+"
  in
  let names = distinct (fun c -> Some c.c_layout.L.Layout.name) in
  let points =
    distinct (fun c ->
        Option.map (Printf.sprintf "%d/%d" c.c_cache_kb) c.c_cfa_kb)
  in
  Printf.sprintf "fused:%s %s%s (%d cells)"
    cells.(g.g_cells.(0)).c_table names
    (if points = "" then "" else " " ^ points)
    (Array.length g.g_cells)

(* Execute one fused group: each member cell opens its own store handle
   and consults it, the cold members replay as one bank sweep, and each
   cold result is saved to its cell's handle, all inside one
   [fused:] slice.  Returns [(input index, result, handle)] per cell;
   nothing is published here. *)
let exec_fgroup ~(ctx : Run.ctx) ~store cells g =
  Run.span ctx (fgroup_label cells g) @@ fun () ->
  let handles =
    Array.map
      (fun ix ->
        Option.map
          (fun (dir, fps) ->
            let prog_fp, trace_fp = fps.(ix) in
            ( Stc_store.open_ ?trace:ctx.Run.trace dir,
              cell_key ~prog_fp ~trace_fp cells.(ix) ))
          store)
      g.g_cells
  in
  let results =
    Array.map
      (function
        | Some (st, key) -> Stc_store.Result.load st ~key
        | None -> None)
      handles
  in
  let cold = ref [] in
  for i = Array.length results - 1 downto 0 do
    if Option.is_none results.(i) then cold := i :: !cold
  done;
  let cold = Array.of_list !cold in
  if Array.length cold > 0 then begin
    let s = g.g_subject in
    (* the bank reads only the tracer from [ctx] *)
    let rs =
      F.Engine.Bank.run_stream ~ctx
        (Array.map (fun i -> cell_spec cells.(g.g_cells.(i))) cold)
        (F.Stream.create
           (F.Packed.tables s.program g.g_layout)
           (Stc_trace.Source.of_recorder s.trace))
    in
    Array.iteri
      (fun j i ->
        (match handles.(i) with
        | Some (st, key) -> Stc_store.Result.save st ~key rs.(j)
        | None -> ());
        results.(i) <- Some rs.(j))
      cold
  end;
  Array.mapi
    (fun i ix -> (ix, Option.get results.(i), Option.map fst handles.(i)))
    g.g_cells

(* Run planned cells: re-plan them into per-(subject, layout content)
   fused groups — one {!F.Engine.Bank} sweep per group — and run the
   groups self-scheduled on a pool of [ctx.jobs] domains.  After the
   join, each cell's store handle, [engine.*] counters and cell event
   are published in input order, so outputs are byte-identical at any
   job count.  Returns each cell's row and engine result, in input
   order. *)
let exec_cells ~(ctx : Run.ctx) cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  (* Fingerprint each distinct subject once per grid, not once per cell:
     a trace hash walks millions of entries. *)
  let store =
    Option.map
      (fun dir ->
        let prog_fp = memo_phys Stc_store.Fp.program in
        let trace_fp = memo_phys Stc_store.Fp.trace in
        ( dir,
          Array.map
            (fun c ->
              (prog_fp c.c_subject.program, trace_fp c.c_subject.trace))
            cells ))
      ctx.Run.store
  in
  let out =
    Stc_par.Pool.with_pool ~domains:ctx.Run.jobs ?trace:ctx.Run.trace
    @@ fun pool ->
    Stc_par.Pool.map ~chunk:1 pool (exec_fgroup ~ctx ~store cells)
      (fused_groups cells)
  in
  (* Scatter results back to input positions, then publish in that
     order. *)
  let done_ = Array.make n None in
  Array.iter
    (Array.iter (fun (ix, r, handle) -> done_.(ix) <- Some (r, handle)))
    out;
  List.init n (fun ix ->
      let cell = cells.(ix) and r, handle = Option.get done_.(ix) in
      let row = cell_row cell r in
      (match ctx.Run.metrics with
      | Some reg ->
        Option.iter (Pipeline.publish_store reg) handle;
        publish_result reg r;
        emit_cell reg cell row r
      | None -> ());
      (row, r))

let run_cells ~ctx cells = List.map snd (exec_cells ~ctx cells)

let stc_params (c : sim_config) ~cache_bytes ~cfa_bytes =
  L.Algo.params ~exec_threshold:c.exec_threshold
    ~branch_threshold:c.branch_threshold ~cache_bytes ~cfa_bytes ()

let grid_params = stc_params default_sim_config

(* ---------- layout-algorithm selection ----------

   Algorithms come from the {!L.Algo} registry: the two fixed baselines
   ([orig], [P&H]) anchor every table, and [?layouts] selects which
   CFA-parameterized algorithms fill the (cache × CFA) grid — default:
   all of them, in registration order. *)

let algo_exn name =
  match L.Algo.find name with Ok a -> a | Error e -> invalid_arg e

let resolve_layouts names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match L.Algo.find name with
      | Error e -> Error e
      | Ok a when not a.L.Algo.uses_cfa ->
        Error
          (Printf.sprintf
             "layout algorithm %S is a fixed baseline (always in the grid); \
              valid --layouts names: %s"
             name
             (String.concat ", "
                (List.filter_map
                   (fun a ->
                     if a.L.Algo.uses_cfa then Some a.L.Algo.name else None)
                   (L.Algo.all ()))))
      | Ok a -> go (a :: acc) rest)
  in
  go [] names

let selected_algos = function
  | None -> List.filter (fun a -> a.L.Algo.uses_cfa) (L.Algo.all ())
  | Some names -> (
    match resolve_layouts names with Ok l -> l | Error e -> invalid_arg e)

(* The baselines ignore thresholds and geometry; a fixed params record
   keeps their store keys stable across grid configurations. *)
let baseline_params = L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ()

(* Store-backed layout construction for the serial planning prefixes.
   Layouts are pure functions of the profile — its own program and the
   trace it was trained on — and the (algorithm, params) fingerprint, so
   those make the key: an OLTP- or inlined-program profile never aliases
   the pipeline's. *)
let layout_builder ~ctx ~training profile =
  let cached =
    match ctx.Run.store with
    | None -> fun ~algo:_ ~params:_ f -> f ()
    | Some dir ->
      let program = P.Profile.program profile in
      let prog_fp = Stc_store.Fp.program program
      and blocks = Array.length program.Stc_cfg.Program.blocks in
      let train_fp = Stc_store.Fp.trace training in
      fun ~algo ~params f ->
        let key =
          Stc_store.Key.of_parts
            [
              "layout";
              prog_fp;
              train_fp;
              Stc_store.Fp.layout_algo ~algo:algo.L.Algo.slug params;
            ]
        in
        let st = Stc_store.open_ ?trace:ctx.Run.trace dir in
        let layout = Stc_store.Layout.cached (Some st) ~blocks ~key f in
        Option.iter (fun reg -> Pipeline.publish_store reg st) ctx.Run.metrics;
        layout
  in
  fun ?(params = baseline_params) name ->
    let algo = algo_exn name in
    Run.span ctx ("layout-" ^ algo.L.Algo.slug) (fun () ->
        cached ~algo ~params (fun () -> L.Algo.layout algo profile params))

let pipeline_layouts ~ctx (pl : Pipeline.t) =
  layout_builder ~ctx ~training:pl.Pipeline.training pl.Pipeline.profile

(* The serial prefix: build every layout (cheap, and Profile memoizes a
   successor cache that must not be raced) and list the grid's cells in
   the exact order the serial implementation visited them. *)
let plan_simulate ~ctx ?layouts config (pl : Pipeline.t) =
  let algos = selected_algos layouts in
  let build = pipeline_layouts ~ctx pl in
  let orig = build "orig" in
  let ph = build "P&H" in
  let cells = ref [] in
  let add layout variant ~cache_kb ~cfa_kb =
    cells :=
      grid_cell ~table:"table34" pl config layout variant ~cache_kb ~cfa_kb
      :: !cells
  in
  (* ideal (perfect cache) for the fixed layouts *)
  add orig Ideal ~cache_kb:0 ~cfa_kb:None;
  add ph Ideal ~cache_kb:0 ~cfa_kb:None;
  add orig Tc_ideal ~cache_kb:0 ~cfa_kb:None;
  List.iter
    (fun (cache_kb, cfas) ->
      let cache_bytes = cache_kb * 1024 in
      (* layout-independent rows, once per cache size *)
      add orig Direct ~cache_kb ~cfa_kb:None;
      add orig Two_way ~cache_kb ~cfa_kb:None;
      add orig Victim ~cache_kb ~cfa_kb:None;
      add orig Trace_cache ~cache_kb ~cfa_kb:None;
      add ph Direct ~cache_kb ~cfa_kb:None;
      List.iter
        (fun cfa ->
          let cfa_bytes = cfa * 1024 in
          let params = stc_params config ~cache_bytes ~cfa_bytes in
          let built =
            List.map (fun a -> (a, build ~params a.L.Algo.name)) algos
          in
          let cfa_kb = Some cfa in
          List.iter
            (fun (_, layout) ->
              add layout Direct ~cache_kb ~cfa_kb;
              add layout Ideal ~cache_kb ~cfa_kb)
            built;
          (* software + hardware trace cache, on the headline layout *)
          match
            List.find_opt (fun (a, _) -> a.L.Algo.name = "ops") built
          with
          | Some (_, ops) ->
            add ops Trace_cache ~cache_kb ~cfa_kb;
            add ops Tc_ideal ~cache_kb ~cfa_kb
          | None -> ())
        cfas)
    config.grid;
  List.rev !cells

let simulate ?(ctx = Run.default) ?(config = default_sim_config) ?layouts pl =
  Run.span ctx "simulate-grid" @@ fun () ->
  List.map fst
    (exec_cells ~ctx (plan_simulate ~ctx ?layouts config pl))

(* ---------- extended grid: prefetch × replacement ----------

   The post-paper hardware dimensions, on the paper's layouts: each of
   the first two grid cache sizes (at its first CFA point) runs every
   selected layout 4-way set-associative under {LRU, SRRIP, TRRIP} ×
   {no prefetch, FDIP}.  TRRIP's per-line temperature table is derived
   from the layout's own hotness in the serial prefix
   ({!Stc_cachesim.Temperature.of_blocks}), so every (layout, cache)
   pair carries its matching hint — and the table enters the cell's
   store key by fingerprint. *)

let plan_extended ~ctx ?layouts config (pl : Pipeline.t) =
  let algos = selected_algos layouts in
  let profile = pl.Pipeline.profile in
  let build = pipeline_layouts ~ctx pl in
  let orig = build "orig" in
  let sizes =
    Array.map Stc_cfg.Block.byte_size
      pl.Pipeline.program.Stc_cfg.Program.blocks
  in
  let counts = P.Profile.counts profile in
  let temperature layout =
    Run.span ctx "cachesim.temperature" (fun () ->
        Stc_cachesim.Temperature.of_blocks ~line_bytes:config.line_bytes
          ~addrs:layout.L.Layout.addr ~sizes ~counts)
  in
  let grid =
    match config.grid with a :: b :: _ -> [ a; b ] | short -> short
  in
  let cells = ref [] in
  List.iter
    (fun (cache_kb, cfas) ->
      match cfas with
      | [] -> ()
      | cfa :: _ ->
        let params =
          stc_params config ~cache_bytes:(cache_kb * 1024)
            ~cfa_bytes:(cfa * 1024)
        in
        let built =
          (orig, None)
          :: List.map (fun a -> (build ~params a.L.Algo.name, Some cfa)) algos
        in
        List.iter
          (fun (layout, cfa_kb) ->
            let temps = temperature layout in
            List.iter
              (fun policy ->
                List.iter
                  (fun fdip ->
                    cells :=
                      grid_cell ~table:"extended" pl config ~assoc:4 ~policy
                        ?fdip layout Direct ~cache_kb ~cfa_kb
                      :: !cells)
                  [ None; Some F.Fdip.default ])
              [
                Stc_cachesim.Icache.Lru;
                Stc_cachesim.Icache.Srrip;
                Stc_cachesim.Icache.Trrip temps;
              ])
          built)
    grid;
  List.rev !cells

let extended ?(ctx = Run.default) ?(config = default_sim_config) ?layouts pl =
  Run.span ctx "extended-grid" @@ fun () ->
  List.map fst
    (exec_cells ~ctx (plan_extended ~ctx ?layouts config pl))

let print_extended rows =
  let t =
    Tbl.create
      ~headers:
        [
          ("layout", Tbl.Left);
          ("cache", Tbl.Right);
          ("policy", Tbl.Left);
          ("FDIP", Tbl.Left);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
          ("evictions", Tbl.Right);
          ("issued", Tbl.Right);
          ("useful", Tbl.Right);
          ("late", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.layout;
          string_of_int r.cache_kb;
          r.policy;
          (if r.prefetch then "on" else "off");
          Tbl.fmiss r.miss_pct;
          Tbl.f2 r.bandwidth;
          string_of_int r.evictions;
          string_of_int r.pf_issued;
          string_of_int r.pf_useful;
          string_of_int r.pf_late;
        ])
    rows;
  print_endline
    "Extended grid: 4-way i-cache, replacement policy x FDIP prefetching.";
  Tbl.print t;
  (* the headline: does a smarter frontend close the gap a smarter
     layout closes? Compare orig+FDIP against the best layout without
     prefetching, at the smallest extended cache size. *)
  let smallest =
    List.fold_left (fun acc r -> min acc r.cache_kb) max_int rows
  in
  let at_small = List.filter (fun r -> r.cache_kb = smallest) rows in
  let orig_fdip =
    List.find_opt
      (fun r ->
        String.equal r.layout "orig"
        && r.prefetch
        && String.equal r.policy "lru")
      at_small
  and orig_plain =
    List.find_opt
      (fun r ->
        String.equal r.layout "orig"
        && (not r.prefetch)
        && String.equal r.policy "lru")
      at_small
  and best_layout =
    List.filter
      (fun r ->
        (not (String.equal r.layout "orig"))
        && (not r.prefetch)
        && String.equal r.policy "lru")
      at_small
    |> function
    | [] -> None
    | l -> Some (List.fold_left (fun a r -> if r.miss_pct < a.miss_pct then r else a) (List.hd l) l)
  in
  match (orig_plain, orig_fdip, best_layout) with
  | Some p, Some f, Some b ->
    Printf.printf
      "FDIP vs layout (%dKB, 4-way LRU): original code misses %.2f/100 \
       instructions, FDIP cuts that to %.2f; the %s layout reaches %.2f \
       with no prefetch hardware at all.\n"
      smallest p.miss_pct f.miss_pct b.layout b.miss_pct
  | _ -> ()

(* ---------- table rendering ---------- *)

let find rows ~layout ~cache_kb ~cfa_kb ~variant =
  List.find_opt
    (fun r ->
      String.equal r.layout layout
      && r.cache_kb = cache_kb && r.cfa_kb = cfa_kb && r.variant = variant)
    rows

let opt_cell f = function Some r -> f r | None -> "-"

let miss_cell = opt_cell (fun r -> Tbl.fmiss r.miss_pct)

let bw_cell = opt_cell (fun r -> Tbl.f2 r.bandwidth)

let grid_of rows =
  (* recover the grid from the rows *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.cfa_kb with
      | Some cfa when r.variant = Direct ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt tbl r.cache_kb) in
        if not (List.mem cfa cur) then
          Hashtbl.replace tbl r.cache_kb (cfa :: cur)
      | _ -> ())
    rows;
  Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) tbl []
  |> List.sort compare

(* The CFA-parameterized layouts actually present, in first-appearance
   (= registry) order — the tables grow a column per selected algorithm
   instead of hard-coding the 1999 contenders. *)
let cfa_layout_names rows =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun r ->
      match r.cfa_kb with
      | Some _ when r.variant = Direct && not (Hashtbl.mem seen r.layout) ->
        Hashtbl.add seen r.layout ();
        Some r.layout
      | _ -> None)
    rows

let print_table3 rows =
  let cfa_names = cfa_layout_names rows in
  let t =
    Tbl.create
      ~headers:
        ([ ("i-cache/CFA", Tbl.Left); ("orig", Tbl.Right); ("P&H", Tbl.Right) ]
        @ List.map (fun n -> (n, Tbl.Right)) cfa_names
        @ [ ("2-way", Tbl.Right); ("victim", Tbl.Right) ])
  in
  let grid = grid_of rows in
  let last_group = List.length grid - 1 in
  List.iteri
    (fun gi (cache_kb, cfas) ->
      List.iteri
        (fun i cfa_kb ->
          let first = i = 0 in
          let fixed layout variant =
            if first then
              miss_cell (find rows ~layout ~cache_kb ~cfa_kb:None ~variant)
            else "-"
          in
          let cfa = Some cfa_kb in
          Tbl.add_row t
            ([
               Printf.sprintf "%d/%d" cache_kb cfa_kb;
               fixed "orig" Direct;
               fixed "P&H" Direct;
             ]
            @ List.map
                (fun layout ->
                  miss_cell
                    (find rows ~layout ~cache_kb ~cfa_kb:cfa ~variant:Direct))
                cfa_names
            @ [ fixed "orig" Two_way; fixed "orig" Victim ]))
        cfas;
      if gi < last_group then Tbl.add_rule t)
    grid;
  print_endline
    "Table 3. Instruction cache misses per 100 instructions executed.";
  Tbl.print t

let print_table4 rows =
  let cfa_names = cfa_layout_names rows in
  let t =
    Tbl.create
      ~headers:
        ([ ("i-cache/CFA", Tbl.Left); ("orig", Tbl.Right); ("P&H", Tbl.Right) ]
        @ List.map (fun n -> (n, Tbl.Right)) cfa_names
        @ [ ("TC 16KB", Tbl.Right); ("TC+ops", Tbl.Right) ])
  in
  (* Ideal line *)
  let ideal layout cfa_kb =
    bw_cell (find rows ~layout ~cache_kb:0 ~cfa_kb ~variant:Ideal)
  in
  let ideal_range layout =
    let vals =
      List.filter_map
        (fun r ->
          if
            String.equal r.layout layout
            && r.variant = Ideal && r.cache_kb = 0 && r.cfa_kb <> None
          then Some r.bandwidth
          else None)
        rows
    in
    match vals with
    | [] -> "-"
    | _ ->
      let lo = List.fold_left min infinity vals
      and hi = List.fold_left max neg_infinity vals in
      if hi -. lo < 0.05 then Tbl.f2 hi
      else Printf.sprintf "%s-%s" (Tbl.f2 lo) (Tbl.f2 hi)
  in
  let tc_ideal_range () =
    let vals =
      List.filter_map
        (fun r ->
          if r.variant = Tc_ideal && String.equal r.layout "ops" then
            Some r.bandwidth
          else None)
        rows
    in
    match vals with
    | [] -> "-"
    | _ -> Tbl.f2 (List.fold_left max neg_infinity vals)
  in
  Tbl.add_row t
    ([ "Ideal"; ideal "orig" None; ideal "P&H" None ]
    @ List.map ideal_range cfa_names
    @ [
        bw_cell
          (find rows ~layout:"orig" ~cache_kb:0 ~cfa_kb:None ~variant:Tc_ideal);
        tc_ideal_range ();
      ]);
  Tbl.add_rule t;
  let grid = grid_of rows in
  let last_group = List.length grid - 1 in
  List.iteri
    (fun gi (cache_kb, cfas) ->
      List.iteri
        (fun i cfa_kb ->
          let first = i = 0 in
          let fixed layout variant =
            if first then
              bw_cell (find rows ~layout ~cache_kb ~cfa_kb:None ~variant)
            else "-"
          in
          let cfa = Some cfa_kb in
          Tbl.add_row t
            ([
               Printf.sprintf "%d/%d" cache_kb cfa_kb;
               fixed "orig" Direct;
               fixed "P&H" Direct;
             ]
            @ List.map
                (fun layout ->
                  bw_cell
                    (find rows ~layout ~cache_kb ~cfa_kb:cfa ~variant:Direct))
                cfa_names
            @ [
                fixed "orig" Trace_cache;
                bw_cell
                  (find rows ~layout:"ops" ~cache_kb ~cfa_kb:cfa
                     ~variant:Trace_cache);
              ]))
        cfas;
      if gi < last_group then Tbl.add_rule t)
    grid;
  print_endline
    "Table 4. Fetch bandwidth (instructions per cycle), 5-cycle miss penalty.";
  Tbl.print t

let print_sequentiality rows =
  let pick layout variant =
    List.find_opt (fun r -> String.equal r.layout layout && r.variant = variant) rows
  in
  match (pick "orig" Ideal, pick "ops" Ideal) with
  | Some o, Some s ->
    Printf.printf
      "Instructions executed between taken branches: %.1f (original code)\n\
       -> %.1f (ops layout), a %.1fx increase.\n"
      o.instrs_between_taken s.instrs_between_taken
      (s.instrs_between_taken /. o.instrs_between_taken)
  | _ -> print_endline "sequentiality: runs not found"

(* ---------- ablation ---------- *)

type ablation_row = {
  a_exec : int;
  a_branch : float;
  a_cfa_kb : int;
  a_miss_pct : float;
  a_bandwidth : float;
}

let ablation ?(ctx = Run.default) ?(cache_kb = 32)
    ?(exec_thresholds = [ 1; 10; 50; 200; 1000 ])
    ?(branch_thresholds = [ 0.1; 0.3; 0.5 ]) ?(cfa_kbs = [ 4; 8; 16 ])
    (pl : Pipeline.t) =
  Run.span ctx "ablation-grid" @@ fun () ->
  let build = pipeline_layouts ~ctx pl in
  (* serial prefix: one ops layout per sweep point *)
  let metas = ref [] and cells = ref [] in
  List.iter
    (fun a_exec ->
      List.iter
        (fun a_branch ->
          List.iter
            (fun a_cfa_kb ->
              let config =
                {
                  default_sim_config with
                  exec_threshold = a_exec;
                  branch_threshold = a_branch;
                }
              in
              let params =
                stc_params config ~cache_bytes:(cache_kb * 1024)
                  ~cfa_bytes:(a_cfa_kb * 1024)
              in
              let ops = build ~params "ops" in
              metas := (a_exec, a_branch, a_cfa_kb) :: !metas;
              cells :=
                grid_cell ~table:"ablation" pl config ops Direct ~cache_kb
                  ~cfa_kb:(Some a_cfa_kb)
                :: !cells)
            cfa_kbs)
        branch_thresholds)
    exec_thresholds;
  let rows = exec_cells ~ctx (List.rev !cells) in
  List.map2
    (fun (a_exec, a_branch, a_cfa_kb) ((r : row), _) ->
      {
        a_exec;
        a_branch;
        a_cfa_kb;
        a_miss_pct = r.miss_pct;
        a_bandwidth = r.bandwidth;
      })
    (List.rev !metas) rows

let ablation_row_to_string r =
  Printf.sprintf "exec=%d branch=%.2f cfa=%d miss=%.6f bw=%.6f" r.a_exec
    r.a_branch r.a_cfa_kb r.a_miss_pct r.a_bandwidth

let print_ablation rows =
  let t =
    Tbl.create
      ~headers:
        [
          ("ExecThresh", Tbl.Right);
          ("BranchThresh", Tbl.Right);
          ("CFA KB", Tbl.Right);
          ("miss %", Tbl.Right);
          ("IPC", Tbl.Right);
        ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          string_of_int r.a_exec;
          Tbl.f2 r.a_branch;
          string_of_int r.a_cfa_kb;
          Tbl.fmiss r.a_miss_pct;
          Tbl.f2 r.a_bandwidth;
        ])
    rows;
  print_endline "Ablation: STC thresholds and CFA size (ops seeds).";
  Tbl.print t
