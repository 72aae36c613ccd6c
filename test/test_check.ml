(* Stc_check: the checkers must accept every real layout algorithm's
   output on randomized profiled programs, reject hand-corrupted
   layouts/plans, and the reference oracles must agree with the
   optimized simulators. *)

module C = Stc_check
module L = Stc_layout
module F = Stc_fetch
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Profile = Stc_profile.Profile
module Recorder = Stc_trace.Recorder

(* Random (program, trace) pairs: the skeleton recipe of Test_fetch. *)
let trace_of_skeleton = Test_fetch.trace_of_skeleton

let gen_skeleton = Test_fetch.gen_skeleton

let profile_of prog rec_ =
  let p = Profile.create prog in
  Stc_trace.Source.iter (Stc_trace.Source.of_recorder rec_) (Profile.sink p);
  p

let check_cache_bytes = 512

let check_cfa_bytes = 128

let fail_violations name = function
  | [] -> ()
  | v :: _ as vs ->
    QCheck.Test.fail_reportf "%s: %d violation(s), first: %s" name
      (List.length vs)
      (C.Layouts.violation_to_string v)

let check_params =
  L.Algo.params ~cache_bytes:check_cache_bytes ~cfa_bytes:check_cfa_bytes ()

(* Every registered layout algorithm round-trips name -> plan -> clean
   validation on randomized programs: registering a new algorithm makes
   it subject to this property without touching the test. *)
let prop_layouts_valid =
  QCheck.Test.make ~name:"registered algorithms produce zero violations"
    ~count:40
    QCheck.(make gen_skeleton)
    (fun skel ->
      let prog, rec_ = trace_of_skeleton skel in
      let profile = profile_of prog rec_ in
      List.iter
        (fun algo ->
          match L.Algo.find algo.L.Algo.name with
          | Error msg ->
            QCheck.Test.fail_reportf "%s not found by name: %s"
              algo.L.Algo.name msg
          | Ok algo ->
            let plan = L.Algo.plan algo profile check_params in
            let cfa_bytes = L.Algo.effective_cfa_bytes algo check_params in
            let layout =
              L.Mapping.map_plan prog ~name:algo.L.Algo.name
                ~cache_bytes:check_cache_bytes ~cfa_bytes plan
            in
            fail_violations algo.L.Algo.name
              (C.Layouts.all
                 ~cfa_plan:(plan, check_cache_bytes, cfa_bytes)
                 profile layout))
        (L.Algo.all ());
      true)

(* ---------- the registry itself ---------- *)

let test_registry_find () =
  (* names, slugs and aliases all resolve, case-insensitively *)
  List.iter
    (fun (query, expect) ->
      match L.Algo.find query with
      | Ok a -> Alcotest.(check string) query expect a.L.Algo.name
      | Error msg -> Alcotest.failf "find %S: %s" query msg)
    [
      ("orig", "orig");
      ("ORIG", "orig");
      ("original", "orig");
      ("P&H", "P&H");
      ("ph", "P&H");
      ("pettis-hansen", "P&H");
      ("Torr", "Torr");
      ("stc", "ops");
      ("stc-auto", "auto");
      ("Codestitcher", "codestitcher");
      ("cs", "codestitcher");
      ("ext-tsp", "exttsp");
    ];
  (* no two algorithms share a name, slug or alias: each of them, in
     either case, resolves to its own algorithm *)
  List.iter
    (fun a ->
      List.iter
        (fun n ->
          List.iter
            (fun query ->
              match L.Algo.find query with
              | Ok b ->
                Alcotest.(check string) query a.L.Algo.name b.L.Algo.name
              | Error msg -> Alcotest.failf "find %S: %s" query msg)
            [ n; String.uppercase_ascii n ])
        (a.L.Algo.name :: a.L.Algo.slug :: a.L.Algo.aliases))
    (L.Algo.all ());
  (* an unknown name fails with the valid names spelled out *)
  match L.Algo.find "hotcold9000" with
  | Ok a -> Alcotest.failf "bogus name resolved to %s" a.L.Algo.name
  | Error msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "error lists %s" name)
          true (contains msg name))
      (List.map (fun a -> a.L.Algo.name) (L.Algo.all ()))

(* ---------- corruption is detected ---------- *)

let straight_prog n =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let blocks = Array.init n (fun _ -> Builder.new_block b ~pid:p ~size:4) in
  Array.iteri
    (fun i bid ->
      if i < n - 1 then Builder.set_term b bid (Terminator.Fall blocks.(i + 1))
      else Builder.set_term b bid Terminator.Ret)
    blocks;
  Builder.finish_proc b ~pid:p ~entry:blocks.(0) ~blocks;
  Builder.build b

let has pred vs = List.exists pred vs

let test_detects_corruption () =
  let prog = straight_prog 8 in
  let good = L.Original.layout prog in
  let corrupt f =
    let addr = Array.copy good.L.Layout.addr in
    f addr;
    { L.Layout.name = "corrupt"; addr }
  in
  (* overlapping placement *)
  let vs =
    C.Layouts.structure prog (corrupt (fun a -> a.(3) <- a.(2)))
  in
  Alcotest.(check bool)
    "overlap detected" true
    (has (function C.Layouts.Overlap _ -> true | _ -> false) vs);
  (* misalignment *)
  let vs =
    C.Layouts.structure prog (corrupt (fun a -> a.(5) <- a.(5) + 2))
  in
  Alcotest.(check bool)
    "misalignment detected" true
    (has (function C.Layouts.Misaligned _ -> true | _ -> false) vs);
  (* wrong block count *)
  let truncated =
    { L.Layout.name = "short"; addr = Array.sub good.L.Layout.addr 0 4 }
  in
  Alcotest.(check bool)
    "wrong count detected" true
    (has
       (function C.Layouts.Wrong_block_count _ -> true | _ -> false)
       (C.Layouts.structure prog truncated));
  (* executed block without a valid placement *)
  let profile = Profile.create prog in
  Profile.inject_block profile 2 ~count:7;
  let vs = C.Layouts.coverage profile (corrupt (fun a -> a.(2) <- -64)) in
  Alcotest.(check bool)
    "unplaced executed block detected" true
    (has
       (function
         | C.Layouts.Unplaced { block = 2; count = 7 } -> true | _ -> false)
       vs);
  Alcotest.(check (list bool))
    "good layout is clean" []
    (List.map (fun _ -> true) (C.Layouts.all profile good))

let test_detects_bad_plan () =
  let prog = straight_prog 8 in
  let cache_bytes = 64 and cfa_bytes = 32 in
  (* blocks are 16 bytes each: 0-1 fit the CFA, 2..5 second pass, 6-7
     cold — a valid partition the mapping lays out cleanly *)
  let plan =
    {
      L.Mapping.cfa_seqs = [ [ 0; 1 ] ];
      other_seqs = [ [ 2; 3 ]; [ 4; 5 ] ];
      cold = [ 6; 7 ];
    }
  in
  let layout =
    L.Mapping.map_plan prog ~name:"plan" ~cache_bytes ~cfa_bytes plan
  in
  Alcotest.(check (list string))
    "valid plan is clean" []
    (List.map C.Layouts.violation_to_string
       (C.Layouts.cfa prog layout ~cache_bytes ~cfa_bytes plan));
  (* a block mentioned twice / a block missing *)
  let bad =
    { plan with L.Mapping.cold = [ 6; 6 ] (* 7 missing, 6 twice *) }
  in
  let vs = C.Layouts.cfa prog layout ~cache_bytes ~cfa_bytes bad in
  Alcotest.(check bool)
    "duplicate detected" true
    (has
       (function
         | C.Layouts.Plan_not_partition { block = 6; times = 2 } -> true
         | _ -> false)
       vs);
  Alcotest.(check bool)
    "missing block detected" true
    (has
       (function
         | C.Layouts.Plan_not_partition { block = 7; times = 0 } -> true
         | _ -> false)
       vs);
  (* a "CFA" block that actually sits past the CFA boundary *)
  let claims_more =
    { plan with L.Mapping.cfa_seqs = [ [ 0; 1 ]; [ 2 ] ]; other_seqs = [ [ 3 ]; [ 4; 5 ] ] }
  in
  let vs = C.Layouts.cfa prog layout ~cache_bytes ~cfa_bytes claims_more in
  Alcotest.(check bool)
    "CFA overflow detected" true
    (has (function C.Layouts.Cfa_overflow { block = 2; _ } -> true | _ -> false) vs);
  (* a second-pass block placed inside a CFA window *)
  let intruding =
    {
      L.Layout.name = "intrude";
      addr = (let a = Array.copy layout.L.Layout.addr in
              (* logical cache 1 starts at 64; its CFA window is 64..96 *)
              a.(3) <- 64 + 16;
              a)
    }
  in
  let vs = C.Layouts.cfa prog intruding ~cache_bytes ~cfa_bytes plan in
  Alcotest.(check bool)
    "CFA intrusion detected" true
    (has
       (function
         | C.Layouts.Cfa_intrusion { block = 3; window = 1; _ } -> true
         | _ -> false)
       vs)

(* ---------- oracles vs optimized implementations ---------- *)

let test_oracle_icache_stream () =
  List.iter
    (fun (assoc, victim_lines, size_bytes) ->
      match
        C.diff_icache_stream ~accesses:50_000 ~seed:7 ~assoc ~victim_lines
          ~size_bytes ()
      with
      | None -> ()
      | Some msg ->
        Alcotest.failf "icache oracle diverged (assoc=%d victim=%d): %s"
          assoc victim_lines msg)
    [ (1, 0, 1024); (1, 8, 1024); (2, 0, 2048); (4, 16, 4096); (2, 2, 512) ]

let case ?(size_bytes = 1024) ?(assoc = 1) ?(victim_lines = 0) ?(tc = false)
    ?(policy = C.P_lru) ?fdip ?pred name =
  {
    C.case_name = name;
    size_bytes;
    assoc;
    victim_lines;
    tc;
    policy;
    fdip;
    pred;
  }

let predict ?(redirect_penalty = 3) kind =
  { C.Oracle.kind; redirect_penalty }

let small_cases =
  [
    case "1kb-direct";
    case "1kb-victim4" ~victim_lines:4;
    case "1kb-2way-tc" ~assoc:2 ~tc:true;
    case "1kb-victim4-tc" ~victim_lines:4 ~tc:true;
    case "ideal-tc" ~size_bytes:0 ~tc:true;
    (* both sides of the engine's re-touch skip: one set, where the
       second line of a cycle's window can evict the first, and two, the
       smallest cache the skip applies to *)
    case "32b-direct" ~size_bytes:32;
    case "64b-2way" ~size_bytes:64 ~assoc:2;
    case "32b-direct-victim4" ~size_bytes:32 ~victim_lines:4;
    case "128b-2way" ~size_bytes:128 ~assoc:2;
    (* two sets, but an RRIP hit rewrites its line's RRPV *)
    case "256b-4way-srrip" ~size_bytes:256 ~assoc:4 ~policy:C.P_srrip;
    (* tiny caches under the post-paper mechanisms: RRIP aging and FDIP
       prefetch traffic both churn constantly at this size *)
    case "1kb-4way-srrip" ~assoc:4 ~policy:C.P_srrip;
    case "1kb-4way-trrip" ~assoc:4 ~policy:C.P_trrip;
    case "1kb-direct-fdip" ~fdip:Stc_fetch.Fdip.default;
    case "1kb-4way-trrip-fdip" ~assoc:4 ~policy:C.P_trrip
      ~fdip:Stc_fetch.Fdip.default;
    case "1kb-fdip-tc" ~tc:true ~fdip:Stc_fetch.Fdip.default;
    (* direction prediction on both fetch paths, with tiny tables so
       counters alias and gshare's history actually matters *)
    case "1kb-always-taken" ~pred:(predict Stc_fetch.Predictor.Always_taken);
    case "1kb-bimodal-tc" ~tc:true
      ~pred:(predict (Stc_fetch.Predictor.Bimodal 16));
    case "ideal-gshare-tc" ~size_bytes:0 ~tc:true
      ~pred:(predict ~redirect_penalty:5 (Stc_fetch.Predictor.Gshare (32, 4)));
    case "1kb-2way-gshare-fdip" ~assoc:2 ~fdip:Stc_fetch.Fdip.default
      ~pred:(predict (Stc_fetch.Predictor.Gshare (64, 6)));
  ]

let prop_oracle_engines_agree =
  QCheck.Test.make ~name:"oracle fetch agrees with the engine" ~count:200
    QCheck.(pair (make gen_skeleton) (int_bound 10_000))
    (fun (skel, layout_seed) ->
      let prog, rec_ = trace_of_skeleton skel in
      let layout = Test_fetch.random_layout prog layout_seed in
      let view =
        F.View.create prog layout (Stc_trace.Source.of_recorder rec_)
      in
      List.iter
        (fun r ->
          (match r.C.er_mismatches with
          | [] -> ()
          | m :: _ ->
            QCheck.Test.fail_reportf "%s: %s differs (oracle %.1f, engine %.1f)"
              r.C.er_case m.C.field m.C.m_oracle m.C.m_engine);
          match r.C.er_divergence with
          | None -> ()
          | Some d ->
            QCheck.Test.fail_reportf "%s: icache diverged: %s" r.C.er_case d)
        (C.diff_cases
           ~temperature:(Array.init 64 (fun i -> i mod 3))
           ~layout_name:"rand" view small_cases);
      true)

(* An RRIP hit rewrites its line's RRPV, so an RRIP slot must probe a
   line the previous probing cycle touched. Half-line blocks laid out in
   order (block [b] at [16 b], in line [b / 2]) and a 2-way, two-set
   cache: cycle 1 misses lines 0 and 1, cycle 2 re-touches both (their
   RRPVs drop to 0), cycles 3 and 4 (windows 3-4 and 4-5) bring lines 3
   and 5 into line 1's set, and cycle 5 fetches line 1 again. Probed,
   line 1 outlives line 3 and hits; left at its insertion RRPV, it is
   the older of two distant lines, is evicted, and misses. *)
let test_rrip_retouch_probed () =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let ids = Array.init 12 (fun _ -> Builder.new_block b ~pid:p ~size:4) in
  Array.iteri
    (fun i bid ->
      Builder.set_term b bid
        (if i = 11 then Terminator.Ret else Terminator.Fall ids.(i + 1)))
    ids;
  Builder.finish_proc b ~pid:p ~entry:ids.(0) ~blocks:ids;
  let prog = Builder.build b in
  let view =
    F.View.create prog (L.Original.layout prog)
      (Stc_trace.Source.of_array (Array.map (Array.get ids) [| 0; 0; 7; 9; 2 |]))
  in
  List.iter
    (fun r ->
      match r.C.er_mismatches with
      | [] -> ()
      | m :: _ ->
        Alcotest.failf "%s: %s differs (oracle %.1f, engine %.1f)" r.C.er_case
          m.C.field m.C.m_oracle m.C.m_engine)
    (C.diff_cases ~layout_name:"orig" view
       [
         case "128b-2way-srrip" ~size_bytes:128 ~assoc:2 ~policy:C.P_srrip;
         case "128b-2way-trrip" ~size_bytes:128 ~assoc:2 ~policy:C.P_trrip;
       ])

let suite =
  [
    Alcotest.test_case "detects corrupted layouts" `Quick
      test_detects_corruption;
    Alcotest.test_case "detects malformed plans" `Quick test_detects_bad_plan;
    Alcotest.test_case "oracle icache matches real icache" `Quick
      test_oracle_icache_stream;
    Alcotest.test_case "algorithm registry lookup" `Quick test_registry_find;
    Alcotest.test_case "RRIP slots probe re-touched lines" `Quick
      test_rrip_retouch_probed;
    QCheck_alcotest.to_alcotest prop_layouts_valid;
    QCheck_alcotest.to_alcotest prop_oracle_engines_agree;
  ]
