(* Properties of the post-paper prefetch/replacement mechanisms.

   Three families:

   - the RRIP replacement policies (SRRIP and temperature-seeded TRRIP)
     never diverge from Stc_check's shared-nothing reference stack on
     random access streams, across associativities and victim-buffer
     geometries;
   - Fdip's structural bounds hold under random configurations and
     address streams: observed FTQ occupancy never exceeds ftq_depth
     and in-flight prefetches never exceed mshrs;
   - the FDIP-off engine configuration is exactly the historical
     engine: a config built without ~fdip equals Config.default result
     for result, and every new counter stays zero (the committed golden
     snapshots pin the same fact against the pre-PR tree). *)

module C = Stc_check
module F = Stc_fetch
module Icache = Stc_cachesim.Icache

let trace_of_skeleton = Test_fetch.trace_of_skeleton
let gen_skeleton = Test_fetch.gen_skeleton

(* --- RRIP/TRRIP vs the oracle reference stack ------------------- *)

(* Geometry generator shared by the policy differentials: small caches
   so sets churn, associativity from direct-mapped to 8-way, with and
   without a victim buffer. *)
let gen_geometry =
  QCheck.Gen.(
    let* assoc = oneofl [ 1; 2; 4; 8 ] in
    let* sets_pow = int_range 3 6 in
    let* victim_lines = oneofl [ 0; 4 ] in
    let* seed = int_bound 1_000_000 in
    let size_bytes = assoc * (1 lsl sets_pow) * 32 in
    return (assoc, victim_lines, size_bytes, seed))

let check_stream ~policy ~name (assoc, victim_lines, size_bytes, seed) =
  match
    C.diff_icache_stream ~accesses:4_000 ~policy ~seed ~assoc ~victim_lines
      ~size_bytes ()
  with
  | None -> true
  | Some msg ->
    QCheck.Test.fail_reportf
      "%s diverged (assoc=%d victim=%d size=%d seed=%d): %s" name assoc
      victim_lines size_bytes seed msg

let prop_srrip_matches_oracle =
  QCheck.Test.make ~name:"SRRIP never evicts differently from the oracle"
    ~count:50
    QCheck.(make gen_geometry)
    (check_stream ~policy:Icache.Srrip ~name:"srrip")

let prop_trrip_matches_oracle =
  QCheck.Test.make ~name:"TRRIP never evicts differently from the oracle"
    ~count:50
    QCheck.(pair (make gen_geometry) (int_bound 1000))
    (fun (geometry, tseed) ->
      (* Temperatures deliberately cover out-of-range values (3): the
         policy must treat unknown lines as cold, identically on both
         sides. The table is shorter than the address space, so lookups
         past its end are exercised too. *)
      let temps = Array.init 128 (fun i -> (i + tseed) mod 4) in
      check_stream ~policy:(Icache.Trrip temps) ~name:"trrip" geometry)

(* --- FDIP structural bounds -------------------------------------- *)

let gen_fdip_run =
  QCheck.Gen.(
    let* ftq_depth = int_range 1 16 in
    let* mshrs = int_range 1 16 in
    let* degree = int_range 1 4 in
    let* latency = int_range 0 8 in
    let* lines_pow = int_range 3 5 in
    let* addrs = array_size (int_range 20 400) (int_bound 4095) in
    return
      ( F.Fdip.config ~ftq_depth ~mshrs ~degree ~latency (),
        1 lsl lines_pow,
        addrs ))

let prop_ftq_bounds =
  QCheck.Test.make
    ~name:"FTQ occupancy and in-flight prefetches stay within bounds"
    ~count:100
    QCheck.(make gen_fdip_run)
    (fun (cfg, cache_lines, addrs) ->
      let ic = Icache.create ~assoc:2 ~size_bytes:(cache_lines * 32) () in
      let fd = F.Fdip.create cfg ic in
      let n = Array.length addrs in
      Array.iteri
        (fun i addr ->
          let now = i + 1 in
          F.Fdip.begin_cycle fd ~now;
          ignore (F.Fdip.demand fd ~now ~miss_penalty:5 (addr / 32 * 32));
          F.Fdip.advance fd ~now ~nth:(fun k ->
              if i + k < n then Some addrs.(i + k) else None);
          if F.Fdip.in_flight fd > cfg.F.Fdip.mshrs then
            QCheck.Test.fail_reportf "cycle %d: %d in flight > mshrs %d" now
              (F.Fdip.in_flight fd) cfg.F.Fdip.mshrs)
        addrs;
      if F.Fdip.occupancy_hwm fd > cfg.F.Fdip.ftq_depth then
        QCheck.Test.fail_reportf "FTQ occupancy hwm %d > depth %d"
          (F.Fdip.occupancy_hwm fd)
          cfg.F.Fdip.ftq_depth;
      if F.Fdip.inflight_hwm fd > cfg.F.Fdip.mshrs then
        QCheck.Test.fail_reportf "in-flight hwm %d > mshrs %d"
          (F.Fdip.inflight_hwm fd)
          cfg.F.Fdip.mshrs;
      (* Every issue either completed or is still in flight. *)
      if
        F.Fdip.completed fd + F.Fdip.in_flight fd <> F.Fdip.issued fd
      then
        QCheck.Test.fail_reportf "issued %d <> completed %d + in flight %d"
          (F.Fdip.issued fd) (F.Fdip.completed fd) (F.Fdip.in_flight fd);
      true)

(* --- FDIP-off is the historical engine --------------------------- *)

let prop_fdip_off_identical =
  QCheck.Test.make
    ~name:"config without ~fdip is bit-identical to the default engine"
    ~count:25
    QCheck.(pair (make gen_skeleton) (int_bound 10_000))
    (fun (skel, layout_seed) ->
      let prog, rec_ = trace_of_skeleton skel in
      let layout = Test_fetch.random_layout prog layout_seed in
      let source () = Stc_trace.Source.of_recorder rec_ in
      let run config =
        F.Engine.run_packed ~config
          ~icache:(Icache.create ~size_bytes:1024 ())
          (F.Packed.compile prog layout (source ()))
      in
      let base = run F.Engine.Config.default in
      let explicit = run (F.Engine.Config.make ()) in
      if base <> explicit then
        QCheck.Test.fail_reportf
          "Config.make () result differs from Config.default";
      let via_view =
        F.Engine.run ~config:F.Engine.Config.default
          ~icache:(Icache.create ~size_bytes:1024 ())
          (F.View.create prog layout (source ()))
      in
      if base <> via_view then
        QCheck.Test.fail_reportf "Engine.run result differs from run_packed";
      if
        base.F.Engine.prefetch_issued <> 0
        || base.F.Engine.prefetch_completed <> 0
        || base.F.Engine.prefetch_late <> 0
        || base.F.Engine.prefetch_useful <> 0
        || base.F.Engine.icache_evictions <> 0
      then
        QCheck.Test.fail_reportf
          "FDIP-off run has non-zero prefetch/eviction counters";
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_srrip_matches_oracle;
    QCheck_alcotest.to_alcotest prop_trrip_matches_oracle;
    QCheck_alcotest.to_alcotest prop_ftq_bounds;
    QCheck_alcotest.to_alcotest prop_fdip_off_identical;
  ]
