(* Properties of the post-paper prefetch/replacement mechanisms.

   Three families:

   - the RRIP replacement policies (SRRIP and temperature-seeded TRRIP)
     never diverge from Stc_check's shared-nothing reference stack on
     random access streams, across associativities and victim-buffer
     geometries;
   - Fdip's structural bounds hold under random configurations and
     address streams: in-flight prefetches never exceed mshrs (FTQ
     occupancy needs no check: [advance] stops at most ftq_depth
     targets past the fetch point); and its incremental FTQ walk is
     exactly the stateless walk it replaced, cycle by cycle;
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
      let words = Array.map (fun a -> a lsl F.Packed.addr_shift) addrs in
      Array.iteri
        (fun i addr ->
          let now = i + 1 in
          F.Fdip.begin_cycle fd ~now;
          ignore (F.Fdip.demand fd ~now ~miss_penalty:5 (addr / 32 * 32));
          F.Fdip.advance fd ~now words ~len:n ~idx:i ~gidx:i;
          if F.Fdip.in_flight fd > cfg.F.Fdip.mshrs then
            QCheck.Test.fail_reportf "cycle %d: %d in flight > mshrs %d" now
              (F.Fdip.in_flight fd) cfg.F.Fdip.mshrs)
        addrs;
      (* Every issue either completed or is still in flight. *)
      if
        F.Fdip.completed fd + F.Fdip.in_flight fd <> F.Fdip.issued fd
      then
        QCheck.Test.fail_reportf "issued %d <> completed %d + in flight %d"
          (F.Fdip.issued fd) (F.Fdip.completed fd) (F.Fdip.in_flight fd);
      true)

(* --- the incremental FTQ is the stateless walk ------------------- *)

(* The FDIP frontend as it was before its FTQ walk became incremental:
   every cycle re-probes every target's line pair from the cycle start.
   It is the reference the incremental walk must match exactly. *)
module Stateless = struct
  type t = {
    cfg : F.Fdip.config;
    ic : Icache.t;
    line : int;
    lines : int array;
    ready : int array;
    mutable n : int;
    mutable issued : int;
    mutable completed : int;
    mutable late : int;
    mutable useful : int;
    mutable misses : int;
    mutable victim_hits : int;
  }

  let create cfg ic =
    {
      cfg;
      ic;
      line = Icache.line_bytes ic;
      lines = Array.make cfg.F.Fdip.mshrs 0;
      ready = Array.make cfg.F.Fdip.mshrs 0;
      n = 0;
      issued = 0;
      completed = 0;
      late = 0;
      useful = 0;
      misses = 0;
      victim_hits = 0;
    }

  let remove t i =
    for j = i to t.n - 2 do
      t.lines.(j) <- t.lines.(j + 1);
      t.ready.(j) <- t.ready.(j + 1)
    done;
    t.n <- t.n - 1

  let find_inflight t a =
    let r = ref (-1) in
    for i = 0 to t.n - 1 do
      if t.lines.(i) = a then r := i
    done;
    !r

  let begin_cycle t ~now =
    let i = ref 0 in
    while !i < t.n do
      if t.ready.(!i) <= now then begin
        Icache.fill_prefetch t.ic t.lines.(!i);
        t.completed <- t.completed + 1;
        remove t !i
      end
      else incr i
    done

  let demand t ~now ~miss_penalty a =
    let k = find_inflight t a in
    if k >= 0 then begin
      let remain = t.ready.(k) - now in
      remove t k;
      Icache.fill_prefetch t.ic a;
      t.completed <- t.completed + 1;
      t.late <- t.late + 1;
      t.misses <- t.misses + 1;
      ignore (Icache.access t.ic a);
      if remain <= 0 then 0 else min remain miss_penalty
    end
    else
      match Icache.access t.ic a with
      | Icache.Hit -> 0
      | Icache.Prefetch_hit ->
        t.useful <- t.useful + 1;
        0
      | Icache.Victim_hit ->
        t.victim_hits <- t.victim_hits + 1;
        0
      | Icache.Miss ->
        t.misses <- t.misses + 1;
        miss_penalty

  let issue t ~now budget a =
    if
      !budget > 0
      && t.n < t.cfg.F.Fdip.mshrs
      && (not (Icache.mem t.ic a))
      && find_inflight t a < 0
    then begin
      t.lines.(t.n) <- a;
      t.ready.(t.n) <- now + t.cfg.F.Fdip.latency;
      t.n <- t.n + 1;
      t.issued <- t.issued + 1;
      decr budget
    end

  let advance t ~now ~nth =
    let budget = ref t.cfg.F.Fdip.degree in
    let k = ref 0 and stop = ref false in
    while (not !stop) && !k < t.cfg.F.Fdip.ftq_depth do
      match nth !k with
      | None -> stop := true
      | Some addr ->
        let l0 = addr / t.line * t.line in
        issue t ~now budget l0;
        issue t ~now budget (l0 + t.line);
        incr k
    done
end

(* Tiny caches of every associativity and policy, with and without a
   victim buffer, so that installs evict constantly; block addresses
   mix sequential runs with jumps over a range a few times the cache. *)
let gen_lockstep =
  QCheck.Gen.(
    let* assoc = oneofl [ 1; 2; 4 ] in
    let* sets = oneofl [ 1; 2; 4 ] in
    let* line = oneofl [ 16; 32; 64 ] in
    let* victim_lines = oneofl [ 0; 2 ] in
    let* policy = int_bound 2 in
    let* ftq_depth = int_range 1 24 in
    let* mshrs = int_range 1 16 in
    let* degree = int_range 1 4 in
    let* latency = int_range 0 8 in
    let* seed = int_bound 1_000_000 in
    let* n = int_range 20 300 in
    return
      ( (assoc, sets, line, victim_lines, policy),
        F.Fdip.config ~ftq_depth ~mshrs ~degree ~latency (),
        seed,
        n ))

let prop_incremental_ftq_exact =
  QCheck.Test.make
    ~name:"incremental FTQ walk matches the stateless walk cycle by cycle"
    ~count:300
    QCheck.(make gen_lockstep)
    (fun ((assoc, sets, line, victim_lines, policy), cfg, seed, n) ->
      let st = Random.State.make [| seed |] in
      let span_lines = 4 * assoc * sets + 4 in
      let addrs = Array.make n 0 in
      for i = 1 to n - 1 do
        addrs.(i) <-
          (if Random.State.int st 3 = 0 then
             4 * Random.State.int st (span_lines * line / 4)
           else addrs.(i - 1) + (4 * Random.State.int st (line / 2)))
      done;
      let temps = Array.init span_lines (fun _ -> Random.State.int st 4) in
      let cache () =
        Icache.create ~assoc ~line_bytes:line ~victim_lines
          ~policy:
            (match policy with
            | 0 -> Icache.Lru
            | 1 -> Icache.Srrip
            | _ -> Icache.Trrip temps)
          ~size_bytes:(assoc * sets * line) ()
      in
      let rf = Stateless.create cfg (cache ()) in
      let ic = cache () in
      let fd = F.Fdip.create cfg ic in
      let global = Array.map (fun a -> a lsl F.Packed.addr_shift) addrs in
      (* the bank's sliding window: blocks from [dropped] on, padded
         with junk past [len] *)
      let dropped = ref 0 and window = ref [||] in
      let slide d =
        dropped := d;
        window :=
          Array.append
            (Array.sub global d (n - d))
            (Array.init 4 (fun _ -> Random.State.bits st))
      in
      slide 0;
      let start = ref 0 and now = ref 0 in
      while !start < n do
        incr now;
        let now = !now in
        Stateless.begin_cycle rf ~now;
        F.Fdip.begin_cycle fd ~now;
        let demand a =
          let want = Stateless.demand rf ~now ~miss_penalty:5 a in
          let got = F.Fdip.demand fd ~now ~miss_penalty:5 a in
          if got <> want then
            QCheck.Test.fail_reportf "cycle %d: demand %d charged %d, want %d"
              now a got want
        in
        (* no demand (a trace-cache hit), the cycle-start block's line
           pair, or a pair further into a long block *)
        (match Random.State.int st 4 with
        | 0 -> ()
        | k ->
          let a = (addrs.(!start) / line * line) + (max 0 (k - 1) * line) in
          demand a;
          demand (a + line));
        if Random.State.int st 8 = 0 then slide !start;
        let s = !start in
        Stateless.advance rf ~now ~nth:(fun k ->
            if s + k < n then Some addrs.(s + k) else None);
        F.Fdip.advance fd ~now !window ~len:(n - !dropped) ~idx:(s - !dropped)
          ~gidx:s;
        let check what got want =
          if got <> want then
            QCheck.Test.fail_reportf "cycle %d: %s %d, want %d" now what got
              want
        in
        check "issued" (F.Fdip.issued fd) rf.Stateless.issued;
        check "completed" (F.Fdip.completed fd) rf.Stateless.completed;
        check "late" (F.Fdip.late fd) rf.Stateless.late;
        check "useful" (F.Fdip.useful fd) rf.Stateless.useful;
        check "in flight" (F.Fdip.in_flight fd) rf.Stateless.n;
        check "demand misses" (F.Fdip.demand_misses fd) rf.Stateless.misses;
        check "demand victim hits"
          (F.Fdip.demand_victim_hits fd)
          rf.Stateless.victim_hits;
        start := !start + Random.State.int st 3
      done;
      for l = 0 to span_lines + 2 do
        if Icache.mem ic (l * line) <> Icache.mem rf.Stateless.ic (l * line)
        then QCheck.Test.fail_reportf "line %d residency differs at end" l
      done;
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
        (F.Engine.Bank.run_packed
           [|
             F.Engine.Bank.spec ~config
               ~icache:(Icache.create ~size_bytes:1024 ())
               ();
           |]
           (F.Packed.compile prog layout (source ()))).(0)
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
    QCheck_alcotest.to_alcotest prop_incremental_ftq_exact;
    QCheck_alcotest.to_alcotest prop_fdip_off_identical;
  ]
