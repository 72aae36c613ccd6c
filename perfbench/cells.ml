(* The simulation grids' cell plans, rebuilt through the public layout API
   in the exact order Experiments.simulate and Experiments.extended plan
   them, so that the per-layer replica and the oracle check can address
   the cell behind each library row.

   Layout construction and TRRIP temperature derivation are passed in
   ([~build], [~temperature]) so that the replica can time and trace each
   call while the oracle check builds them plainly. *)

module E = Stc_core.Experiments
module L = Stc_layout
module F = Stc_fetch
module Icache = Stc_cachesim.Icache
module Oracle = Stc_check.Oracle

type grid = Simulate | Extended

type cell = {
  layout : L.Layout.t;
  variant : E.variant;
  cache_kb : int;
  cfa_kb : int option;
  assoc : int;
  policy : Icache.policy;
  fdip : F.Fdip.config option;
}

let sc = E.default_sim_config

let algo_exn name =
  match L.Algo.find name with Ok a -> a | Error e -> invalid_arg e

(* Experiments.selected_algos: every CFA-family algorithm by default. *)
let selected_algos = function
  | None -> List.filter (fun a -> a.L.Algo.uses_cfa) (L.Algo.all ())
  | Some names -> (
    match E.resolve_layouts names with Ok l -> l | Error e -> invalid_arg e)

let baseline_params = L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ()

let stc_params ~cache_kb ~cfa_kb =
  L.Algo.params ~exec_threshold:sc.E.exec_threshold
    ~branch_threshold:sc.E.branch_threshold ~cache_bytes:(cache_kb * 1024)
    ~cfa_bytes:(cfa_kb * 1024) ()

(* Experiments.plan_simulate. *)
let plan_simulate ~build algos =
  let orig = build (algo_exn "orig") baseline_params in
  let ph = build (algo_exn "P&H") baseline_params in
  let cells = ref [] in
  let add layout variant ~cache_kb ~cfa_kb =
    let c =
      {
        layout;
        variant;
        cache_kb;
        cfa_kb;
        assoc = 1;
        policy = Icache.Lru;
        fdip = None;
      }
    in
    cells := c :: !cells
  in
  add orig E.Ideal ~cache_kb:0 ~cfa_kb:None;
  add ph E.Ideal ~cache_kb:0 ~cfa_kb:None;
  add orig E.Tc_ideal ~cache_kb:0 ~cfa_kb:None;
  List.iter
    (fun (cache_kb, cfas) ->
      add orig E.Direct ~cache_kb ~cfa_kb:None;
      add orig E.Two_way ~cache_kb ~cfa_kb:None;
      add orig E.Victim ~cache_kb ~cfa_kb:None;
      add orig E.Trace_cache ~cache_kb ~cfa_kb:None;
      add ph E.Direct ~cache_kb ~cfa_kb:None;
      List.iter
        (fun cfa ->
          let params = stc_params ~cache_kb ~cfa_kb:cfa in
          let built = List.map (fun a -> (a, build a params)) algos in
          let cfa_kb = Some cfa in
          List.iter
            (fun (_, layout) ->
              add layout E.Direct ~cache_kb ~cfa_kb;
              add layout E.Ideal ~cache_kb ~cfa_kb)
            built;
          match List.find_opt (fun (a, _) -> a.L.Algo.name = "ops") built with
          | Some (_, ops) ->
            add ops E.Trace_cache ~cache_kb ~cfa_kb;
            add ops E.Tc_ideal ~cache_kb ~cfa_kb
          | None -> ())
        cfas)
    sc.E.grid;
  List.rev !cells

(* Experiments.plan_extended. *)
let plan_extended ~build ~temperature algos =
  let orig = build (algo_exn "orig") baseline_params in
  let grid = match sc.E.grid with a :: b :: _ -> [ a; b ] | short -> short in
  let cells = ref [] in
  List.iter
    (fun (cache_kb, cfas) ->
      match cfas with
      | [] -> ()
      | cfa :: _ ->
        let params = stc_params ~cache_kb ~cfa_kb:cfa in
        let built =
          (orig, None) :: List.map (fun a -> (build a params, Some cfa)) algos
        in
        List.iter
          (fun (layout, cfa_kb) ->
            let temps = temperature layout in
            List.iter
              (fun policy ->
                List.iter
                  (fun fdip ->
                    cells :=
                      {
                        layout;
                        variant = E.Direct;
                        cache_kb;
                        cfa_kb;
                        assoc = 4;
                        policy;
                        fdip;
                      }
                      :: !cells)
                  [ None; Some F.Fdip.default ])
              [ Icache.Lru; Icache.Srrip; Icache.Trrip temps ])
          built)
    grid;
  List.rev !cells

(* Experiments.plan_extended's per-layout TRRIP temperature table. *)
let temperature_of (pl : Stc_core.Pipeline.t) =
  let blocks = pl.Stc_core.Pipeline.program.Stc_cfg.Program.blocks in
  let sizes = Array.map Stc_cfg.Block.byte_size blocks in
  let counts = Stc_profile.Profile.counts pl.Stc_core.Pipeline.profile in
  fun layout ->
    Stc_cachesim.Temperature.of_blocks ~line_bytes:sc.E.line_bytes
      ~addrs:layout.L.Layout.addr ~sizes ~counts

let plan ?(build = fun profile a p -> L.Algo.layout a profile p)
    ?temperature grid ~layouts (pl : Stc_core.Pipeline.t) =
  let profile = pl.Stc_core.Pipeline.profile in
  let build = build profile in
  let algos = selected_algos layouts in
  let cells =
    match grid with
    | Simulate -> plan_simulate ~build algos
    | Extended ->
      let temperature =
        match temperature with Some f -> f | None -> temperature_of pl
      in
      plan_extended ~build ~temperature algos
  in
  Array.of_list cells

(* Cells sharing a physical layout, in first-appearance order: the fused
   groups Experiments executes as one Engine.Bank sweep each. *)
let groups cells =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      match List.assq_opt c.layout !acc with
      | Some members -> members := i :: !members
      | None -> acc := !acc @ [ (c.layout, ref [ i ]) ])
    cells;
  Array.of_list
    (List.map (fun (l, members) -> (l, Array.of_list (List.rev !members))) !acc)

let engine_config ?fdip () =
  F.Engine.Config.make ~line_bytes:sc.E.line_bytes
    ~miss_penalty:sc.E.miss_penalty ?fdip ()

(* Experiments.cell_caches: the i-cache geometry a cell's variant
   implies as (assoc, victim lines, policy), [None] for an ideal cache,
   and whether a trace cache fronts it. *)
let geometry c =
  match c.variant with
  | E.Ideal | E.Tc_ideal -> None
  | E.Direct | E.Trace_cache -> Some (c.assoc, 0, c.policy)
  | E.Two_way -> Some (2, 0, Icache.Lru)
  | E.Victim -> Some (1, 16, Icache.Lru)

let has_trace_cache c =
  match c.variant with
  | E.Trace_cache | E.Tc_ideal -> true
  | E.Direct | E.Two_way | E.Victim | E.Ideal -> false

(* Fresh caches per call: the engine owns their state for the replay. *)
let spec c =
  let size_bytes = c.cache_kb * 1024 in
  F.Engine.Bank.spec
    ~config:(engine_config ?fdip:c.fdip ())
    ?icache:
      (Option.map
         (fun (assoc, victim_lines, policy) ->
           Icache.create ~assoc ~victim_lines ~policy ~size_bytes ())
         (geometry c))
    ?trace_cache:
      (if has_trace_cache c then
         Some (F.Tracecache.create ~entries:sc.E.tc_entries ())
       else None)
    ()

(* The same cell through the shared-nothing reference model of
   Stc_check: an independent re-derivation of SEQ.3, the caches and
   FDIP, one instruction per step. *)
let oracle_result (pl : Stc_core.Pipeline.t) c =
  let size_bytes = c.cache_kb * 1024 in
  let view =
    F.View.create pl.Stc_core.Pipeline.program c.layout
      (Stc_core.Pipeline.test_source pl)
  in
  Oracle.fetch
    ~config:(engine_config ?fdip:c.fdip ())
    ?icache:
      (Option.map
         (fun (assoc, victim_lines, policy) ->
           Oracle.Icache.create ~assoc ~victim_lines ~policy ~size_bytes ())
         (geometry c))
    ?trace_cache:
      (if has_trace_cache c then
         Some (Oracle.Tracecache.create ~entries:sc.E.tc_entries ())
       else None)
    view

let policy_name = function
  | Icache.Lru -> "lru"
  | Icache.Srrip -> "srrip"
  | Icache.Trrip _ -> "trrip"

(* Experiments.finish_cell's row derivation. *)
let row c (r : F.Engine.result) : E.row =
  {
    E.layout = c.layout.L.Layout.name;
    cache_kb =
      (match c.variant with E.Ideal | E.Tc_ideal -> 0 | _ -> c.cache_kb);
    cfa_kb = c.cfa_kb;
    variant = c.variant;
    miss_pct = F.Engine.miss_rate_pct r;
    bandwidth = F.Engine.bandwidth r;
    instrs_between_taken = r.F.Engine.instrs_between_taken;
    tc_hit_pct =
      (if r.F.Engine.tc_lookups = 0 then 0.0
       else
         100.0 *. float_of_int r.F.Engine.tc_hits
         /. float_of_int r.F.Engine.tc_lookups);
    assoc = (match c.variant with E.Two_way -> 2 | _ -> c.assoc);
    policy = policy_name c.policy;
    prefetch = Option.is_some c.fdip;
    evictions = r.F.Engine.icache_evictions;
    pf_issued = r.F.Engine.prefetch_issued;
    pf_useful = r.F.Engine.prefetch_useful;
    pf_late = r.F.Engine.prefetch_late;
  }

let row_to_string = function
  | Simulate -> E.row_to_string
  | Extended -> E.ext_row_to_string
