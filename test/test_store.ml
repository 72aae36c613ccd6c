module Store = Stc_store
module Registry = Stc_obs.Registry
module Run = Stc_core.Run
module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module F = Stc_fetch
module Recorder = Stc_trace.Recorder

(* Every test gets its own throwaway store directory under the system
   temp dir, removed on success (a failed test leaves it for autopsy). *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stc_store_test.%d.%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  let r = f dir in
  rm_rf dir;
  r

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let warnings reg =
  List.filter (fun (kind, _) -> kind = "store.warning") (Registry.events reg)

(* ---------- keys ---------- *)

let test_key () =
  let k parts = Store.Key.hex (Store.Key.of_parts parts) in
  Alcotest.(check int) "16 hex digits" 16 (String.length (k [ "a"; "b" ]));
  Alcotest.(check string) "deterministic" (k [ "a"; "b" ]) (k [ "a"; "b" ]);
  Alcotest.(check bool) "part boundaries matter" true
    (k [ "ab"; "c" ] <> k [ "a"; "bc" ]);
  Alcotest.(check bool) "empty parts matter" true (k [ "a"; "" ] <> k [ "a" ])

(* ---------- raw container ---------- *)

let test_raw_roundtrip () =
  with_dir @@ fun dir ->
  let reg = Registry.create () in
  let st = Store.open_ ~metrics:reg dir in
  let key = Store.Key.of_parts [ "raw"; "roundtrip" ] in
  let payload = "the quick brown payload \x00\xff with binary bytes" in
  Store.write st ~kind:"x" ~version:3 key payload;
  (match Store.read st ~kind:"x" ~version:3 key with
  | Some p -> Alcotest.(check string) "payload back" payload p
  | None -> Alcotest.fail "entry not found after write");
  (* a missing key is a silent miss *)
  Alcotest.(check bool) "missing key" true
    (Store.read st ~kind:"x" ~version:3 (Store.Key.of_parts [ "other" ])
    = None);
  Alcotest.(check int) "cold misses are silent" 0 (List.length (warnings reg));
  (* a version mismatch is a miss plus a warning, but not corruption *)
  Alcotest.(check bool) "version mismatch" true
    (Store.read st ~kind:"x" ~version:4 key = None);
  let s = Store.stats st in
  Alcotest.(check int) "hits" 1 s.Store.hits;
  Alcotest.(check int) "misses" 2 s.Store.misses;
  Alcotest.(check int) "writes" 1 s.Store.writes;
  Alcotest.(check int) "corrupt" 0 s.Store.corrupt;
  Alcotest.(check int) "stale entry warns" 1 (List.length (warnings reg));
  Alcotest.(check bool) "bytes accounted" true
    (s.Store.bytes_read > 0 && s.Store.bytes_written > 0)

let entry_path dir =
  match Store.scan dir with
  | [ e ] -> e.Store.e_path
  | es -> Alcotest.failf "expected exactly one entry, found %d" (List.length es)

let test_corruption_detected () =
  with_dir @@ fun dir ->
  let reg = Registry.create () in
  let st = Store.open_ ~metrics:reg dir in
  let key = Store.Key.of_parts [ "corruption" ] in
  let payload = String.init 256 (fun i -> Char.chr (i mod 256)) in
  Store.write st ~kind:"x" ~version:1 key payload;
  let path = entry_path dir in
  let good = read_file path in
  (* bit-flip inside the payload: CRC must catch it *)
  let flipped = Bytes.of_string good in
  let pos = String.length good - 10 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 1));
  write_file path (Bytes.to_string flipped);
  Alcotest.(check bool) "bit flip rejected" true
    (Store.read st ~kind:"x" ~version:1 key = None);
  (match Store.inspect_file path with
  | { Store.e_ok = false; e_reason = Some _; _ } -> ()
  | _ -> Alcotest.fail "inspect_file accepted a bit-flipped entry");
  (* truncation *)
  write_file path (String.sub good 0 (String.length good / 2));
  Alcotest.(check bool) "truncation rejected" true
    (Store.read st ~kind:"x" ~version:1 key = None);
  (* garbage magic *)
  write_file path ("GARB" ^ String.sub good 4 (String.length good - 4));
  Alcotest.(check bool) "bad magic rejected" true
    (Store.read st ~kind:"x" ~version:1 key = None);
  let s = Store.stats st in
  Alcotest.(check int) "three corruptions counted" 3 s.Store.corrupt;
  Alcotest.(check int) "all warned" 3 (List.length (warnings reg));
  (* and the run carries on: rewrite, read back *)
  Store.write st ~kind:"x" ~version:1 key payload;
  Alcotest.(check bool) "recovered" true
    (Store.read st ~kind:"x" ~version:1 key = Some payload)

let test_cached_repairs () =
  with_dir @@ fun dir ->
  let reg = Registry.create () in
  let st = Store.open_ ~metrics:reg dir in
  let key = Store.Key.of_parts [ "layout"; "repair" ] in
  let layout = { Stc_layout.Layout.name = "l"; addr = [| 0; 32; 96; 64 |] } in
  let computed = ref 0 in
  let compute () =
    incr computed;
    layout
  in
  (* miss -> compute -> write *)
  let l1 = Store.Layout.cached (Some st) ~key compute in
  Alcotest.(check int) "computed once" 1 !computed;
  Alcotest.(check bool) "round-tripped" true (l1 = layout);
  (* hit -> no recompute *)
  ignore (Store.Layout.cached (Some st) ~key compute);
  Alcotest.(check int) "served from store" 1 !computed;
  (* corrupt the entry: cached recomputes and repairs it *)
  let path = entry_path dir in
  write_file path (String.sub (read_file path) 0 8);
  let l2 = Store.Layout.cached (Some st) ~key compute in
  Alcotest.(check int) "recomputed after damage" 2 !computed;
  Alcotest.(check bool) "addresses intact" true (l2 = layout);
  Alcotest.(check bool) "damage warned" true (warnings reg <> []);
  (* the rewrite healed the entry *)
  (match Store.Layout.load st ~key with
  | Some l -> Alcotest.(check bool) "healed" true (l = layout)
  | None -> Alcotest.fail "entry not repaired");
  (* a None store computes every time *)
  ignore (Store.Layout.cached None ~key compute);
  Alcotest.(check int) "no store, no cache" 3 !computed

(* ---------- codec round-trip properties ---------- *)

let ids_of r = Array.init (Recorder.length r) (Recorder.get r)

(* The store's one trace format, round-tripped through a store at a
   random segment size. *)
let prop_trace_codec =
  QCheck.Test.make ~name:"trace codec roundtrip" ~count:100
    QCheck.(
      triple
        (array_of_size Gen.(int_range 0 200) (int_bound 10_000))
        (small_list (pair printable_string (int_bound 200)))
        (int_range 1 64))
    (fun (ids, marks, segment_blocks) ->
      with_dir @@ fun dir ->
      let st = Store.open_ dir in
      let key = Store.Key.of_parts [ "trace"; "codec" ] in
      Store.Chunked.save ~segment_blocks st ~key (Recorder.of_ids ids ~marks);
      match Store.Chunked.load st ~key with
      | Some r -> ids_of r = ids && Recorder.marks r = marks
      | None -> false)

let prop_layout_codec =
  QCheck.Test.make ~name:"layout codec roundtrip" ~count:100
    QCheck.(
      pair printable_string
        (array_of_size Gen.(int_range 0 200) (int_bound 1_000_000)))
    (fun (name, addr) ->
      let l = { Stc_layout.Layout.name; addr } in
      Store.Layout.decode (Store.Layout.encode l) = l)

(* A result whose integer fields are [f.(0..17)], in declaration order. *)
let result_of f instrs_between_taken =
  {
    F.Engine.instrs = f.(0);
    cycles = f.(1);
    fetch_cycles = f.(2);
    seq_cycles = f.(3);
    tc_cycles = f.(4);
    icache_accesses = f.(5);
    icache_misses = f.(6);
    icache_victim_hits = f.(7);
    tc_lookups = f.(8);
    tc_hits = f.(9);
    taken_branches = f.(10);
    instrs_between_taken;
    cond_branches = f.(11);
    mispredictions = f.(12);
    icache_evictions = f.(13);
    prefetch_issued = f.(14);
    prefetch_completed = f.(15);
    prefetch_late = f.(16);
    prefetch_useful = f.(17);
  }

let prop_result_codec =
  QCheck.Test.make ~name:"result codec roundtrip" ~count:100
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.return 18) (int_bound 1_000_000_000))
        pos_float)
    (fun (f, instrs_between_taken) ->
      let r = result_of f instrs_between_taken in
      Store.Result.decode (Store.Result.encode r) = r)

(* Every decoder: the layout and result codecs, and the chunked trace's
   manifest and segments as [Chunked.save] wrote them. *)
let prop_decode_rejects_junk =
  QCheck.Test.make ~name:"decoders never accept trailing junk" ~count:100
    QCheck.(
      pair
        (array_of_size Gen.(int_range 0 50) (int_bound 10_000))
        printable_string)
    (fun (ids, junk) ->
      QCheck.assume (junk <> "");
      let rejects decode bytes =
        match decode (bytes ^ junk) with
        | _ -> false
        | exception Store.Corrupt _ -> true
      in
      with_dir @@ fun dir ->
      let st = Store.open_ dir in
      let key = Store.Key.of_parts [ "junk" ] in
      let segment_blocks = 16 in
      Store.Chunked.save ~segment_blocks st ~key
        (Recorder.of_ids ids ~marks:[]);
      let payload kind key =
        Option.get (Store.read st ~kind ~version:Store.Chunked.version key)
      in
      let segments =
        List.init
          ((Array.length ids + segment_blocks - 1) / segment_blocks)
          (fun i ->
            payload Store.Chunked.segment_kind (Store.Chunked.seg_key key i))
      in
      let result = result_of (Array.make 18 (Array.length ids)) 1.5 in
      rejects Store.Layout.decode
        (Store.Layout.encode { Stc_layout.Layout.name = "l"; addr = ids })
      && rejects Store.Result.decode (Store.Result.encode result)
      && rejects Store.Chunked.decode_manifest
           (payload Store.Chunked.manifest_kind key)
      && List.for_all (rejects (Store.Chunked.decode_segment ~base:0)) segments)

(* ---------- end to end: cold vs warm ---------- *)

let tiny_config = { Pipeline.quick_config with Pipeline.sf = 0.0004 }
let tiny_grid = { E.default_sim_config with E.grid = [ (8, [ 2 ]) ] }

let run_grid dir =
  let reg = Registry.create ~clock:(fun () -> 0.0) () in
  let ctx = Run.default |> Run.with_metrics reg |> Run.with_store dir in
  let pl = Pipeline.run ~ctx ~config:tiny_config () in
  let rows = E.simulate ~ctx ~config:tiny_grid pl in
  (reg, rows)

let non_store_counters reg =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"store." name))
    (Registry.counters reg)

let non_store_events reg =
  List.filter
    (fun (kind, _) -> not (String.starts_with ~prefix:"store." kind))
    (Registry.events reg)

let store_counter reg name =
  Option.value ~default:0 (List.assoc_opt name (Registry.counters reg))

let test_cold_warm_identical () =
  with_dir @@ fun dir ->
  let cold_reg, cold_rows = run_grid dir in
  let warm_reg, warm_rows = run_grid dir in
  Alcotest.(check bool) "rows identical" true (cold_rows = warm_rows);
  Alcotest.(check bool) "warm run hit the store" true
    (store_counter warm_reg "store.hits" > 0);
  Alcotest.(check bool) "no corruption" true
    (store_counter warm_reg "store.corrupt" = 0);
  (* everything observable except the store's own counters matches *)
  Alcotest.(check bool) "counters identical" true
    (non_store_counters cold_reg = non_store_counters warm_reg);
  Alcotest.(check bool) "events identical" true
    (non_store_events cold_reg = non_store_events warm_reg)

let test_corrupt_store_survives () =
  with_dir @@ fun dir ->
  let _, cold_rows = run_grid dir in
  (* damage every cached engine result; the run must recompute and agree *)
  let results =
    List.filter (fun e -> e.Store.e_kind = "result") (Store.scan dir)
  in
  Alcotest.(check bool) "results were cached" true (results <> []);
  List.iter
    (fun e ->
      let s = read_file e.Store.e_path in
      write_file e.Store.e_path (String.sub s 0 (String.length s - 2)))
    results;
  let warm_reg, warm_rows = run_grid dir in
  Alcotest.(check bool) "rows identical despite damage" true
    (cold_rows = warm_rows);
  Alcotest.(check bool) "damage counted" true
    (store_counter warm_reg "store.corrupt" >= List.length results);
  Alcotest.(check bool) "damage warned" true (warnings warm_reg <> []);
  (* the warm run repaired the store *)
  Alcotest.(check bool) "store repaired" true
    (List.for_all (fun e -> e.Store.e_ok) (Store.scan dir))

(* A store directory that cannot be created (here, below a regular file)
   is a broken cache, not a failed run: the same rows as without a
   store, and a warning in the registry. *)
let test_uncreatable_store_dir () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "plain" in
  write_file file "";
  let reg, rows = run_grid (Filename.concat file "st") in
  let plain =
    E.simulate ~config:tiny_grid (Pipeline.run ~config:tiny_config ())
  in
  Alcotest.(check bool) "rows identical to a store-less run" true
    (rows = plain);
  Alcotest.(check bool) "store.warning recorded" true (warnings reg <> [])

(* ---------- ctx plumbing ---------- *)

let test_with_store () =
  Alcotest.(check bool) "default has no store" true (Run.default.Run.store = None);
  let ctx = Run.default |> Run.with_store "/tmp/somewhere" in
  Alcotest.(check bool) "with_store sets it" true
    (ctx.Run.store = Some "/tmp/somewhere");
  Alcotest.(check bool) "of_ctx on default" true
    (Store.of_ctx Run.default = None);
  with_dir @@ fun dir ->
  match Store.of_ctx (Run.default |> Run.with_store dir) with
  | Some st -> Alcotest.(check string) "of_ctx opens the dir" dir (Store.dir st)
  | None -> Alcotest.fail "of_ctx ignored ctx.store"

let suite =
  [
    Alcotest.test_case "key hashing" `Quick test_key;
    Alcotest.test_case "raw write/read/version" `Quick test_raw_roundtrip;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "cached repairs damage" `Quick test_cached_repairs;
    Alcotest.test_case "Run.with_store / of_ctx" `Quick test_with_store;
    Alcotest.test_case "cold vs warm identical" `Slow test_cold_warm_identical;
    Alcotest.test_case "corrupt store survives" `Slow test_corrupt_store_survives;
    Alcotest.test_case "uncreatable store directory survives" `Slow
      test_uncreatable_store_dir;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_trace_codec;
        prop_layout_codec;
        prop_result_codec;
        prop_decode_rejects_junk;
      ]
