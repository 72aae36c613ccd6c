module L = Stc_layout
module P = Stc_profile
module Program = Stc_cfg.Program
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator

(* ---------- Figure 3 golden test ---------- *)

let test_figure3 () =
  let _prog, profile, seeds = Stc_core.Figure3.graph () in
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 4; branch_threshold = 0.4 }
      ~seeds
  in
  let got = List.map (List.map Stc_core.Figure3.label) seqs in
  Alcotest.(check (list (list string)))
    "sequences" Stc_core.Figure3.expected_sequences got

let test_figure3_thresholds_matter () =
  let _prog, profile, seeds = Stc_core.Figure3.graph () in
  (* With a permissive branch threshold the main trace absorbs A5 via the
     noted transition... it still cannot, since A2's best successor is A3;
     but B1 (weight 1) enters no sequence even at branch threshold 0. *)
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 1; branch_threshold = 0.0 }
      ~seeds
  in
  let all = List.concat_map (List.map Stc_core.Figure3.label) seqs in
  Alcotest.(check bool) "B1 placed at exec threshold 1" true
    (List.mem "B1" all);
  let seqs4 =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 4; branch_threshold = 0.0 }
      ~seeds
  in
  let all4 = List.concat_map (List.map Stc_core.Figure3.label) seqs4 in
  Alcotest.(check bool) "B1 excluded by exec threshold 4" false
    (List.mem "B1" all4);
  Alcotest.(check bool) "A6 excluded by exec threshold 4" false
    (List.mem "A6" all4)

(* ---------- shared fixtures: a profiled random program ---------- *)

let fixture =
  lazy
    (let config =
       {
         Stc_core.Pipeline.quick_config with
         Stc_core.Pipeline.sf = 0.0003;
       }
     in
     Stc_core.Pipeline.run ~config ())

let profile () = (Lazy.force fixture).Stc_core.Pipeline.profile

let program () = (Lazy.force fixture).Stc_core.Pipeline.program

let check_valid prog layout =
  match Stc_check.Layouts.structure prog layout with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %s" layout.L.Layout.name
      (Stc_check.Layouts.violation_to_string v)

let test_original_valid () =
  let prog = program () in
  check_valid prog (L.Original.layout prog)

let test_original_is_textual () =
  let prog = program () in
  let layout = L.Original.layout prog in
  (* within each procedure, textual successors are adjacent *)
  Array.iter
    (fun p ->
      let blocks = p.Stc_cfg.Proc.blocks in
      for i = 0 to Array.length blocks - 2 do
        let a = blocks.(i) and b = blocks.(i + 1) in
        if
          L.Layout.address layout b
          <> L.Layout.address layout a
             + Stc_cfg.Block.byte_size prog.Program.blocks.(a)
        then
          Alcotest.failf "proc %s: blocks %d,%d not adjacent"
            p.Stc_cfg.Proc.name a b
      done)
    prog.Program.procs

let registry_algo name =
  match L.Algo.find name with Ok a -> a | Error msg -> Alcotest.fail msg

let ph_layout profile =
  L.Algo.layout (registry_algo "P&H") profile
    (L.Algo.params ~cache_bytes:0 ~cfa_bytes:0 ())

let test_ph_valid () = check_valid (program ()) (ph_layout (profile ()))

let test_ph_fluff_last () =
  let profile = profile () in
  let layout = ph_layout profile in
  let counts = P.Profile.counts profile in
  (* every never-executed block sits above every executed block *)
  let max_hot = ref 0 and min_cold = ref max_int in
  Array.iteri
    (fun bid c ->
      let a = L.Layout.address layout bid in
      if c > 0 then max_hot := max !max_hot a
      else min_cold := min !min_cold a)
    counts;
  Alcotest.(check bool) "fluff after hot code" true (!min_cold > !max_hot)

let stc_params ~cache_bytes ~cfa_bytes =
  L.Stc.params ~exec_threshold:10 ~branch_threshold:0.3 ~cache_bytes ~cfa_bytes ()

let test_stc_valid () =
  let prog = program () and profile = profile () in
  List.iter
    (fun (cache_bytes, cfa_bytes) ->
      let params = stc_params ~cache_bytes ~cfa_bytes in
      check_valid prog
        (L.Stc.layout profile ~name:"ops" ~params
           ~seeds:(L.Stc.ops_seeds profile));
      check_valid prog
        (L.Stc.layout profile ~name:"auto" ~params
           ~seeds:(L.Stc.auto_seeds profile)))
    [ (8192, 2048); (16384, 4096); (16384, 0); (65536, 16384) ]

let test_torrellas_valid () =
  let prog = program () and profile = profile () in
  let params = stc_params ~cache_bytes:16384 ~cfa_bytes:4096 in
  check_valid prog (L.Algo.layout (registry_algo "Torr") profile params)

(* CFA exclusivity: only first-pass (CFA) code may live below cfa_bytes in
   cache-offset space, except cold filler allowed in later logical
   caches. We verify a weaker but meaningful invariant: all blocks of the
   CFA sequences map to cache offsets < cfa_bytes of logical cache 0. *)
let test_stc_cfa_exclusive () =
  let prog = program () and profile = profile () in
  let cache_bytes = 16384 and cfa_bytes = 4096 in
  let params = stc_params ~cache_bytes ~cfa_bytes in
  let layout =
    L.Stc.layout profile ~name:"ops" ~params ~seeds:(L.Stc.ops_seeds profile)
  in
  (* hottest block must live in the CFA region of the first logical cache *)
  let counts = P.Profile.counts profile in
  let hottest = ref 0 in
  Array.iteri (fun bid c -> if c > counts.(!hottest) then hottest := bid) counts;
  let addr = L.Layout.address layout !hottest in
  Alcotest.(check bool) "hottest block inside the CFA" true
    (addr < cfa_bytes);
  ignore prog

let test_seqbuild_no_duplicates () =
  let profile = profile () in
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = 5; branch_threshold = 0.2 }
      ~seeds:(L.Stc.auto_seeds profile)
  in
  let seen = Hashtbl.create 1024 in
  List.iter
    (List.iter (fun b ->
         if Hashtbl.mem seen b then
           Alcotest.failf "block %d appears in two sequences" b;
         Hashtbl.replace seen b ()))
    seqs

let test_seqbuild_respects_exec_threshold () =
  let profile = profile () in
  let counts = P.Profile.counts profile in
  let threshold = 100 in
  let seqs =
    L.Seqbuild.build profile
      ~params:{ L.Seqbuild.exec_threshold = threshold; branch_threshold = 0.2 }
      ~seeds:(L.Stc.auto_seeds profile)
  in
  List.iter
    (List.iter (fun b ->
         if counts.(b) < threshold then
           Alcotest.failf "block %d (count %d) below the exec threshold" b
             counts.(b)))
    seqs

let test_mapping_skips_cfa_windows () =
  (* hand-rolled tiny program: 40 blocks of 8 instructions (32 bytes) *)
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let blocks = Array.init 40 (fun _ -> Builder.new_block b ~pid:p ~size:8) in
  Array.iteri
    (fun i bid ->
      if i < 39 then Builder.set_term b bid (Terminator.Fall blocks.(i + 1))
      else Builder.set_term b bid Terminator.Ret)
    blocks;
  Builder.finish_proc b ~pid:p ~entry:blocks.(0) ~blocks;
  let prog = Builder.build b in
  let cache_bytes = 256 and cfa_bytes = 64 in
  (* CFA: blocks 0,1 (64 bytes); others as one long sequence; no cold *)
  let cfa = [ [ blocks.(0); blocks.(1) ] ] in
  let others = [ Array.to_list (Array.sub blocks 2 30) ] in
  let cold = Array.to_list (Array.sub blocks 32 8) in
  let layout =
    L.Mapping.map_plan prog ~name:"m" ~cache_bytes ~cfa_bytes
      { L.Mapping.cfa_seqs = cfa; other_seqs = others; cold }
  in
  check_valid prog layout;
  (* no non-CFA sequence block may occupy offsets [0, 64) of any logical
     cache *)
  List.iter
    (fun bid ->
      let a = L.Layout.address layout bid in
      if a mod cache_bytes < cfa_bytes then
        Alcotest.failf "sequence block %d in a CFA window (addr %d)" bid a)
    (List.concat others);
  (* cold code is allowed there, and the windows of later logical caches
     should indeed receive some cold code (hole filling) *)
  let cold_in_windows =
    List.exists
      (fun bid ->
        let a = L.Layout.address layout bid in
        a mod cache_bytes < cfa_bytes && a >= cache_bytes)
      cold
  in
  Alcotest.(check bool) "cold code fills the windows" true cold_in_windows

let prop_layout_permutation =
  QCheck.Test.make ~name:"random order layouts are valid" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let prog = program () in
      let n = Array.length prog.Program.blocks in
      let rng = Stc_util.Rng.create (Int64.of_int seed) in
      let keys = Array.init n (fun _ -> Stc_util.Rng.int rng (1 lsl 30)) in
      let order = Array.init n (fun i -> i) in
      Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) order;
      let layout = L.Layout.of_block_order prog ~name:"rand" order in
      Stc_check.Layouts.structure prog layout = [])

(* ---------- ExtTSP ---------- *)

let test_exttsp_edge_score () =
  let score ~src_end ~dst = L.Exttsp.edge_score ~src_end ~dst 3 in
  let check name want got = Alcotest.(check (float 1e-12)) name want got in
  check "fall-through" 3.0 (score ~src_end:200 ~dst:200);
  check "forward 512 B" (0.05 *. 3.0) (score ~src_end:200 ~dst:712);
  check "forward 1024 B" 0.0 (score ~src_end:200 ~dst:1224);
  check "forward 1025 B" 0.0 (score ~src_end:200 ~dst:1225);
  check "backward 640 B" 0.0 (score ~src_end:1000 ~dst:360)

(* Reference for [Exttsp.chains]: the direct round-based greedy merge.
   Every round regroups all cross edges by chain pair, scores both
   orientations of every pair (pairs in order of their first cross edge,
   the smaller root first) and takes the first best positive gain, so it
   states the selection rule without any cached state. O(merges × edges). *)
let reference_chains profile =
  let prog = P.Profile.program profile in
  let counts = P.Profile.counts profile in
  let n = Array.length prog.Program.blocks in
  let size b = Stc_cfg.Block.byte_size prog.Program.blocks.(b) in
  let chain_of = Array.init n (fun b -> if counts.(b) > 0 then b else -1) in
  let blocks = Array.init n (fun b -> [ b ]) in
  let bytes = Array.init n size in
  let weight = Array.copy counts in
  let anchor = Array.init n Fun.id in
  let offset = Array.make n 0 in
  let edges = ref [] in
  P.Profile.iter_edges profile (fun ~src ~dst ~count ->
      if count > 0 && src <> dst && counts.(src) > 0 && counts.(dst) > 0 then
        edges := (src, dst, count) :: !edges);
  let edges = List.sort compare !edges in
  let gain ra cross =
    let pos b =
      if chain_of.(b) = ra then offset.(b) else bytes.(ra) + offset.(b)
    in
    List.fold_left
      (fun acc (src, dst, w) ->
        acc
        +. L.Exttsp.edge_score ~src_end:(pos src + size src) ~dst:(pos dst) w)
      0.0 cross
  in
  let merge ra rb =
    blocks.(ra) <- blocks.(ra) @ blocks.(rb);
    bytes.(ra) <- bytes.(ra) + bytes.(rb);
    weight.(ra) <- weight.(ra) + weight.(rb);
    anchor.(ra) <- min anchor.(ra) anchor.(rb);
    List.iter (fun b -> chain_of.(b) <- ra) blocks.(rb);
    ignore
      (List.fold_left
         (fun cursor b ->
           offset.(b) <- cursor;
           cursor + size b)
         0 blocks.(ra))
  in
  let rec merge_rounds () =
    let by_pair = Hashtbl.create 256 and pair_order = ref [] in
    List.iter
      (fun (src, dst, w) ->
        let ra = chain_of.(src) and rb = chain_of.(dst) in
        if ra <> rb then begin
          let key = (min ra rb, max ra rb) in
          match Hashtbl.find_opt by_pair key with
          | Some l -> l := (src, dst, w) :: !l
          | None ->
            Hashtbl.replace by_pair key (ref [ (src, dst, w) ]);
            pair_order := key :: !pair_order
        end)
      edges;
    let best = ref None in
    let consider g ra rb =
      match !best with
      | Some (b, _, _) when b >= g -> ()
      | _ -> if g > 0.0 then best := Some (g, ra, rb)
    in
    List.iter
      (fun (ra, rb) ->
        let cross = List.rev !(Hashtbl.find by_pair (ra, rb)) in
        consider (gain ra cross) ra rb;
        consider (gain rb cross) rb ra)
      (List.rev !pair_order);
    match !best with
    | None -> ()
    | Some (_, ra, rb) ->
      merge ra rb;
      merge_rounds ()
  in
  merge_rounds ();
  List.init n Fun.id
  |> List.filter (fun r -> chain_of.(r) = r)
  |> List.sort (fun r1 r2 ->
         if weight.(r1) <> weight.(r2) then compare weight.(r2) weight.(r1)
         else compare anchor.(r1) anchor.(r2))
  |> List.map (fun r -> blocks.(r))

let chains_match profile =
  let got = L.Exttsp.chains profile and want = reference_chains profile in
  let show chains =
    String.concat " | "
      (List.map (fun c -> String.concat "," (List.map string_of_int c)) chains)
  in
  if got <> want then
    QCheck.Test.fail_reportf "chains differ:@.got  %s@.want %s" (show got)
      (show want);
  true

let prop_exttsp_skeleton =
  QCheck.Test.make ~name:"ExtTSP chains = reference (skeleton programs)"
    ~count:60 (QCheck.make Test_fetch.gen_skeleton) (fun skel ->
      let prog, rec_ = Test_fetch.trace_of_skeleton skel in
      let profile = P.Profile.create prog in
      Stc_trace.Source.iter
        (Stc_trace.Source.of_recorder rec_)
        (P.Profile.sink profile);
      chains_match profile)

(* Tie-heavy profiles: uniform block sizes, weights 1 or 2 and edges in
   both directions make equal gains common, so both tie-breaks of the
   selection rule decide merges. *)
type tie_case = {
  blocks : int;
  instrs : int;  (* every block's size *)
  edges : (int * int * int * bool) list;  (* src, dst, weight, both ways *)
}

let gen_tie_case =
  let open QCheck.Gen in
  let* blocks = int_range 2 14 in
  let* instrs = oneofl [ 1; 4; 64 ] in
  let* edges =
    list_size (int_bound (3 * blocks))
      (quad (int_bound (blocks - 1)) (int_bound (blocks - 1)) (int_range 1 2)
         bool)
  in
  return { blocks; instrs; edges }

let print_tie_case c =
  Printf.sprintf "%d blocks of %d instrs; edges %s" c.blocks c.instrs
    (String.concat " "
       (List.map
          (fun (s, d, w, both) ->
            Printf.sprintf "%d%s%d:%d" s (if both then "<>" else ">") d w)
          c.edges))

let tie_profile c =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let blocks =
    Array.init c.blocks (fun _ -> Builder.new_block b ~pid:p ~size:c.instrs)
  in
  Array.iteri
    (fun i bid ->
      Builder.set_term b bid
        (if i + 1 < c.blocks then Terminator.Fall blocks.(i + 1)
         else Terminator.Ret))
    blocks;
  Builder.finish_proc b ~pid:p ~entry:blocks.(0) ~blocks;
  let profile = P.Profile.create (Builder.build b) in
  let edge src dst w =
    if P.Profile.edge_count profile ~src ~dst = 0 then
      P.Profile.inject_edge profile ~src ~dst ~count:w
  in
  List.iter
    (fun (s, d, w, both) ->
      let s = blocks.(s) and d = blocks.(d) in
      edge s d w;
      if both then edge d s w;
      (* inject_edge leaves counts alone: make both endpoints executed *)
      List.iter
        (fun bid ->
          if (P.Profile.counts profile).(bid) = 0 then
            P.Profile.inject_block profile bid ~count:w)
        [ s; d ])
    c.edges;
  profile

let prop_exttsp_ties =
  QCheck.Test.make ~name:"ExtTSP chains = reference (tie-heavy profiles)"
    ~count:500
    (QCheck.make ~print:print_tie_case gen_tie_case)
    (fun c -> chains_match (tie_profile c))

(* ---------- pinned placements ---------- *)

(* Every registered algorithm's layout on the quick pipeline at seed 1,
   at two grid points, as {!Stc_store.Fp.layout} hex. The validity tests
   above accept any legal placement; these values pin the placements
   themselves, so a change that moves a block (a threshold comparison,
   cold-code hole fitting) fails tier-1. Update them only together with
   a deliberate layout change, recorded in CHANGES.md. *)
let pinned_fingerprints =
  [
    ("orig 8/2", "701b26a348e6ce75");
    ("P&H 8/2", "b0e402184f9d1089");
    ("Torr 8/2", "5ea6d59e56ebe37d");
    ("auto 8/2", "ae1aad1b5067cf81");
    ("ops 8/2", "1f8e6d40f6977835");
    ("codestitcher 8/2", "547cb89254e11931");
    ("exttsp 8/2", "1d4f0a0f45ab5051");
    ("orig 32/8", "701b26a348e6ce75");
    ("P&H 32/8", "b0e402184f9d1089");
    ("Torr 32/8", "4530ad204cc12c09");
    ("auto 32/8", "4d3b8aaeda4a0fe1");
    ("ops 32/8", "9500204b3395183d");
    ("codestitcher 32/8", "8adbd455cd35e909");
    ("exttsp 32/8", "42cd55cfc8b8f575");
  ]

let test_layout_fingerprints () =
  let pl =
    Stc_core.Pipeline.run
      ~ctx:(Stc_core.Run.default |> Stc_core.Run.with_seed 1)
      ~config:Stc_core.Pipeline.quick_config ()
  in
  let got =
    List.concat_map
      (fun (cache_kb, cfa_kb) ->
        let params =
          Stc_core.Experiments.grid_params ~cache_bytes:(cache_kb * 1024)
            ~cfa_bytes:(cfa_kb * 1024)
        in
        List.map
          (fun a ->
            ( Printf.sprintf "%s %d/%d" a.L.Algo.name cache_kb cfa_kb,
              Stc_store.Fp.layout
                (L.Algo.layout a pl.Stc_core.Pipeline.profile params) ))
          (L.Algo.all ()))
      [ (8, 2); (32, 8) ]
  in
  Alcotest.(check (list (pair string string)))
    "layout fingerprints" pinned_fingerprints got

let suite =
  [
    Alcotest.test_case "figure 3 worked example" `Quick test_figure3;
    Alcotest.test_case "figure 3 thresholds" `Quick test_figure3_thresholds_matter;
    Alcotest.test_case "original valid" `Quick test_original_valid;
    Alcotest.test_case "original is textual" `Quick test_original_is_textual;
    Alcotest.test_case "P&H valid" `Quick test_ph_valid;
    Alcotest.test_case "P&H fluff last" `Quick test_ph_fluff_last;
    Alcotest.test_case "STC valid across grid" `Quick test_stc_valid;
    Alcotest.test_case "Torrellas valid" `Quick test_torrellas_valid;
    Alcotest.test_case "hottest block in CFA" `Quick test_stc_cfa_exclusive;
    Alcotest.test_case "seqbuild no duplicates" `Quick test_seqbuild_no_duplicates;
    Alcotest.test_case "seqbuild exec threshold" `Quick
      test_seqbuild_respects_exec_threshold;
    Alcotest.test_case "mapping CFA windows" `Quick test_mapping_skips_cfa_windows;
    Alcotest.test_case "ExtTSP edge score" `Quick test_exttsp_edge_score;
    Alcotest.test_case "layout fingerprints pinned" `Quick
      test_layout_fingerprints;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_layout_permutation; prop_exttsp_skeleton; prop_exttsp_ties ]
