module Pool = Stc_par.Pool
module Run = Stc_core.Run
module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module Registry = Stc_obs.Registry
module Json = Stc_obs.Json

(* ---------- pool basics ---------- *)

let test_map_ordering () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let xs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun x -> x * x) xs in
  Alcotest.(check (array int))
    "chunk 1" expected
    (Pool.map ~chunk:1 pool (fun x -> x * x) xs);
  Alcotest.(check (array int))
    "default chunk" expected
    (Pool.map pool (fun x -> x * x) xs);
  Alcotest.(check (array int))
    "oversized chunk" expected
    (Pool.map ~chunk:1000 pool (fun x -> x * x) xs);
  (* reuse: the same pool serves many calls *)
  for _ = 1 to 5 do
    Alcotest.(check (array int))
      "reused" expected
      (Pool.map ~chunk:3 pool (fun x -> x * x) xs)
  done

let test_map_empty_and_serial () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  Alcotest.(check (array int)) "empty input" [||] (Pool.map pool (fun x -> x) [||]);
  Pool.with_pool ~domains:1 @@ fun serial ->
  Alcotest.(check int)
    "domains 1" 1 (Array.length (Pool.stats serial).Pool.s_busy);
  Alcotest.(check (array int))
    "inline path" [| 0; 2; 4 |]
    (Pool.map serial (fun x -> 2 * x) (Array.init 3 (fun i -> i)))

let test_serial_on_caller () =
  let caller = Domain.self () in
  Pool.with_pool ~domains:1 @@ fun pool ->
  let ran_on =
    Pool.map ~chunk:1 pool (fun _ -> Domain.self ()) (Array.make 20 ())
  in
  Alcotest.(check bool) "every task on the caller" true
    (Array.for_all (fun d -> d = caller) ran_on);
  Alcotest.(check int)
    "one slot" 1
    (Array.length (Pool.stats pool).Pool.s_busy)

let test_map_chunk_coverage () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let n = 1037 in
  let hits = Array.make n 0 in
  (* chunks are disjoint, so these writes race on nothing *)
  ignore
    (Pool.map ~chunk:16 pool
       (fun i -> hits.(i) <- hits.(i) + 1)
       (Array.init n Fun.id));
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let xs = Array.init 64 (fun i -> i) in
  (* a raising task must not hang the pool, and the exception reaches the
     caller *)
  (match Pool.map ~chunk:1 pool (fun x -> if x = 17 then raise (Boom x) else x) xs with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom 17 -> ());
  (* ... and the pool is still usable afterwards *)
  Alcotest.(check (array int))
    "pool alive after failure" (Array.map (fun x -> x + 1) xs)
    (Pool.map ~chunk:1 pool (fun x -> x + 1) xs)

let test_lowest_failure_wins () =
  (* Task 40 raises only once task 5 has started, and task 5 only once
     task 40 is about to raise: both fail in every repeat, the higher
     index usually first, and the map must still raise the lower one. *)
  Pool.with_pool ~domains:4 @@ fun pool ->
  for _ = 1 to 5 do
    let started5 = Atomic.make false and raising40 = Atomic.make false in
    let task i =
      if i = 5 then begin
        Atomic.set started5 true;
        while not (Atomic.get raising40) do
          Domain.cpu_relax ()
        done;
        raise (Boom 5)
      end
      else if i = 40 then begin
        while not (Atomic.get started5) do
          Domain.cpu_relax ()
        done;
        Atomic.set raising40 true;
        raise (Boom 40)
      end
      else i
    in
    match Pool.map ~chunk:1 pool task (Array.init 64 Fun.id) with
    | _ -> Alcotest.fail "exception swallowed"
    | exception Boom i -> Alcotest.(check int) "lowest failure" 5 i
  done

let test_ctx_builders () =
  let ctx = Run.default |> Run.with_jobs 0 in
  Alcotest.(check int) "jobs clamped to 1" 1 ctx.Run.jobs;
  let ctx = Run.default |> Run.with_jobs 4 |> Run.with_seed 7 in
  Alcotest.(check int) "jobs kept" 4 ctx.Run.jobs;
  Alcotest.(check bool) "seed set" true (ctx.Run.seed = Some 7);
  Alcotest.(check bool) "no metrics by default" true (ctx.Run.metrics = None)

(* ---------- per-domain accounting and tracing ---------- *)

let busy_work () =
  (* a few hundred microseconds of real work per item, so busy times are
     comfortably non-zero without slowing the suite *)
  let acc = ref 0 in
  for i = 1 to 100_000 do
    acc := (!acc * 31) + i
  done;
  !acc

let test_stats_accounting () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  let n = 64 in
  ignore (Pool.map ~chunk:1 pool (fun _ -> busy_work ()) (Array.init n Fun.id));
  ignore (Pool.map ~chunk:1 pool (fun _ -> busy_work ()) (Array.init n Fun.id));
  let s = Pool.stats pool in
  Alcotest.(check int) "slots sized to domains" 3 (Array.length s.Pool.s_busy);
  Alcotest.(check bool) "wall positive" true (s.Pool.s_wall > 0.0);
  (* each slot's busy time is inside the maps' wall time, and every
     domain ran at least one of the 128 single-item chunks *)
  Array.iteri
    (fun i b ->
      if b > s.Pool.s_wall then
        Alcotest.failf "slot %d: busy %.6f above wall %.6f" i b s.Pool.s_wall;
      if not (b > 0.0) then Alcotest.failf "slot %d ran no chunk" i)
    s.Pool.s_busy

let test_pool_tracing () =
  let tr = Stc_obs.Trace.create () in
  (Pool.with_pool ~domains:2 ~trace:tr @@ fun pool ->
   ignore (Pool.map ~chunk:4 pool (fun _ -> busy_work ()) (Array.init 32 Fun.id)));
  (* 8 chunks, each a queue-depth counter plus a begin/end pair *)
  Alcotest.(check int) "3 events per chunk" 24 (Stc_obs.Trace.events tr);
  let evs = Test_obs_trace.read_back tr in
  let ph e =
    match Json.member "ph" e with Some (Json.Str s) -> s | _ -> "?" in
  let count p = List.length (List.filter (fun e -> ph e = p) evs) in
  Alcotest.(check int) "balanced begins" 8 (count "B");
  Alcotest.(check int) "balanced ends" 8 (count "E");
  Alcotest.(check int) "queue counters" 8 (count "C")

let test_untraced_pool_silent () =
  (* no ?trace: the pool must not touch any tracer; a tracer created on
     the side sees zero events either way *)
  let tr = Stc_obs.Trace.create () in
  (Pool.with_pool ~domains:2 @@ fun pool ->
   ignore (Pool.map pool (fun x -> x + 1) (Array.init 100 Fun.id)));
  Alcotest.(check int) "no events without ?trace" 0 (Stc_obs.Trace.events tr)

(* ---------- jobs-invariance of the simulation grid ---------- *)

let tiny_config = { Pipeline.quick_config with Pipeline.sf = 0.0003 }

let tiny_grid = { E.default_sim_config with E.grid = [ (8, [ 2; 4 ]) ] }

let grid_run jobs =
  let reg = Registry.create () in
  let ctx = Run.default |> Run.with_metrics reg |> Run.with_jobs jobs in
  let pl = Pipeline.run ~ctx ~config:tiny_config () in
  let rows = E.simulate ~ctx ~config:tiny_grid pl in
  let ab =
    E.ablation ~ctx ~cache_kb:8 ~exec_thresholds:[ 10; 50 ]
      ~branch_thresholds:[ 0.3 ] ~cfa_kbs:[ 2 ] pl
  in
  (rows, ab, Stc_obs.Export.to_jsonl reg)

(* Rows and the metrics export do not depend on the job count: whole
   fused groups self-schedule on the pool, and the runner publishes every
   cell after the join, in input order. The export holds the cells and
   their i-cache counters. *)
let test_jobs_invariance () =
  let rows1, ab1, export1 = grid_run 1 in
  let rows3, ab3, export3 = grid_run 3 in
  Alcotest.(check bool) "simulate rows identical" true (rows1 = rows3);
  Alcotest.(check bool) "ablation rows identical" true (ab1 = ab3);
  Alcotest.(check string) "exports byte-identical" export1 export3;
  let has pred = List.exists pred (Json.lines export1) in
  let cell r = Json.member "kind" r = Some (Json.Str "table34.cell") in
  Alcotest.(check bool) "has table34 cells" true (has cell);
  Alcotest.(check bool) "cells carry icache counters" true
    (has (fun r -> cell r && Json.member "icache_accesses" r <> None))

let suite =
  [
    Alcotest.test_case "map ordering and reuse" `Quick test_map_ordering;
    Alcotest.test_case "map empty + domains=1" `Quick test_map_empty_and_serial;
    Alcotest.test_case "domains=1 runs on the caller" `Quick
      test_serial_on_caller;
    Alcotest.test_case "map chunk coverage" `Quick test_map_chunk_coverage;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "lowest failure wins" `Quick test_lowest_failure_wins;
    Alcotest.test_case "Run.ctx builders" `Quick test_ctx_builders;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "pool chunk tracing" `Quick test_pool_tracing;
    Alcotest.test_case "untraced pool emits nothing" `Quick
      test_untraced_pool_silent;
    Alcotest.test_case "jobs-invariant grid" `Slow test_jobs_invariance;
  ]
