(* The segment-streamed trace pipeline: streamed replay must be an
   evaluation strategy, never an approximation.

   - property: over random programs, random traces and random segment
     sizes (1-block segments, a 1-block final segment, segment = trace
     length, empty trace), a bank of one over the stream reproduces
     run_packed's result record and cache counters exactly;
   - empty trace: a stream with no blocks replays like an empty image;
   - memory boundedness: the streamed engine's resident high-water mark
     is a function of the segment size, not the trace length;
   - chunked store: save/load round-trips ids and marks (marks on
     segment boundaries included), a damaged segment is detected and
     repaired, and a warm replay straight off the chunked entry
     reproduces identical engine rows. *)

module F = Stc_fetch
module L = Stc_layout
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Recorder = Stc_trace.Recorder
module Source = Stc_trace.Source
module Segment = Stc_trace.Segment
module Store = Stc_store

(* ---------- random programs and traces ---------- *)

(* A linear-chain program of [n] blocks with seeded random sizes and
   terminators. The engine's replay semantics depend only on each
   block's address, size and flags — the trace need not follow the
   terminators — so a random id sequence exercises every packed-word
   shape (taken/not-taken, cond/uncond, branchy/fallthrough). *)
let random_program seed n =
  let st = Random.State.make [| seed; n |] in
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let ids =
    Array.init n (fun _ -> Builder.new_block b ~pid:p ~size:(1 + Random.State.int st 12))
  in
  Array.iteri
    (fun i bid ->
      (* every terminator keeps an edge to the next block, so the chain
         stays reachable from the entry whatever the dice say *)
      let term =
        if i = n - 1 then Terminator.Ret
        else
          let next = ids.(i + 1) in
          let other = ids.(Random.State.int st n) in
          match Random.State.int st 3 with
          | 0 -> Terminator.Cond { taken = other; fallthru = next }
          | 1 -> Terminator.Jump next
          | _ -> Terminator.Fall next
      in
      Builder.set_term b bid term)
    ids;
  Builder.finish_proc b ~pid:p ~entry:ids.(0) ~blocks:ids;
  (Builder.build b, ids)

let random_trace st ids len =
  Array.init len (fun _ -> ids.(Random.State.int st (Array.length ids)))

(* Fresh simulation state per replay: shared caches would leak state
   from one replay into the next and mask nothing. *)
let mk_state () =
  ( Stc_cachesim.Icache.create ~size_bytes:2048 (),
    F.Tracecache.create ~entries:64 () )

let run_materialized prog layout trace =
  let icache, tc = mk_state () in
  let packed = F.Packed.compile prog layout (Source.of_array trace) in
  let r = F.Engine.run_packed ~icache ~trace_cache:tc packed in
  (r, Stc_cachesim.Icache.stats icache, F.Tracecache.lookups tc, F.Tracecache.hits tc)

(* A bank of one over a segment stream. *)
let replay_stream ?resident_hwm stream =
  let icache, tc = mk_state () in
  let r =
    (F.Engine.Bank.run_stream ?resident_hwm
       [| F.Engine.Bank.spec ~icache ~trace_cache:tc () |]
       stream).(0)
  in
  (r, Stc_cachesim.Icache.stats icache, F.Tracecache.lookups tc, F.Tracecache.hits tc)

let run_streamed ?resident_hwm prog layout trace ~segment_blocks =
  replay_stream ?resident_hwm
    (F.Stream.create (F.Packed.tables prog layout)
       (Source.of_array ~segment_blocks trace))

let check_equal ~what (rm, im, lm, hm) (rs, is_, ls, hs) =
  if rm <> rs then Alcotest.failf "%s: engine result differs" what;
  if im <> is_ then Alcotest.failf "%s: icache counters differ" what;
  if (lm, hm) <> (ls, hs) then
    Alcotest.failf "%s: trace-cache counters differ" what

(* ---------- streamed == materialized ---------- *)

let prop_streamed_equals_materialized =
  QCheck.Test.make ~name:"streamed replay == materialized replay" ~count:80
    QCheck.(triple (int_bound 10_000) (int_bound 400) (int_bound 1_000))
    (fun (seed, len, seg_seed) ->
      let st = Random.State.make [| seed; seg_seed |] in
      let prog, ids = random_program seed (2 + Random.State.int st 40) in
      let trace = random_trace st ids len in
      let layout = L.Original.layout prog in
      let reference = run_materialized prog layout trace in
      (* the interesting segmentations: single-block segments, a
         one-block final segment, one segment spanning everything, and a
         couple of random interior sizes *)
      let sizes =
        [ 1; max 1 (len - 1); max 1 len; len + 1; 2 + Random.State.int st 97 ]
      in
      List.iter
        (fun segment_blocks ->
          check_equal
            ~what:(Printf.sprintf "len=%d seg=%d" len segment_blocks)
            reference
            (run_streamed prog layout trace ~segment_blocks))
        sizes;
      true)

let test_empty_trace () =
  let prog, _ids = random_program 7 5 in
  let layout = L.Original.layout prog in
  let (rm, _, _, _) = run_materialized prog layout [||] in
  let (rs, _, _, _) = run_streamed prog layout [||] ~segment_blocks:4 in
  Alcotest.(check bool) "empty trace streams" true (rm = rs);
  Alcotest.(check int) "no instrs" 0 rs.F.Engine.instrs

(* ---------- memory boundedness ---------- *)

let test_resident_bound () =
  let prog, ids = random_program 21 48 in
  let layout = L.Original.layout prog in
  let st = Random.State.make [| 42 |] in
  let len = 50_000 and segment_blocks = 64 in
  let trace = random_trace st ids len in
  let hwm = ref 0 in
  let streamed =
    run_streamed ~resident_hwm:hwm prog layout trace ~segment_blocks
  in
  check_equal ~what:"hwm run" (run_materialized prog layout trace) streamed;
  (* the buffer never holds more than the live lookahead window plus two
     segments' worth of blocks — in particular it is a small constant
     multiple of the segment size, not of the trace *)
  Alcotest.(check bool)
    (Printf.sprintf "resident %d words bounded by segments, not trace" !hwm)
    true
    (!hwm <= (4 * segment_blocks) + 64 && !hwm < len / 10);
  (* whole-image replay borrows the caller's packed image: same bound
     machinery reports the full trace as resident *)
  let full = ref 0 in
  ignore
    (replay_stream ~resident_hwm:full
       (F.Stream.of_packed
          (F.Packed.compile prog layout (Source.of_array trace))));
  Alcotest.(check int) "single borrowed segment is the whole trace" len !full

(* ---------- chunked store ---------- *)

let with_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stc_stream_test.%d.%d" (Unix.getpid ()) (Random.bits ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let r = f dir in
  rm_rf dir;
  r

let ids_of r = Array.init (Recorder.length r) (Recorder.get r)

let test_chunked_roundtrip () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let seg = 8 in
  (* marks at 0, on a segment boundary, inside a segment, and at the very
     end of the trace *)
  let rec_ =
    Recorder.of_ids
      (Array.init 50 (fun i -> (i * 13) mod 29))
      ~marks:[ ("start", 0); ("boundary", 2 * seg); ("interior", 19); ("end", 50) ]
  in
  let key = Store.Key.of_parts [ "chunked"; "roundtrip" ] in
  Store.Chunked.save ~segment_blocks:seg st ~key rec_;
  (match Store.Chunked.load_manifest st ~key with
  | None -> Alcotest.fail "manifest missing after save"
  | Some m ->
    Alcotest.(check int) "blocks" 50 m.Store.Chunked.m_total_blocks;
    Alcotest.(check int) "segments" 7 (Array.length m.Store.Chunked.m_seg_lens);
    Alcotest.(check int) "last segment short" 2
      m.Store.Chunked.m_seg_lens.(6));
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "chunked entry did not load"
  | Some r2 ->
    Alcotest.(check bool) "ids round-trip" true (ids_of r2 = ids_of rec_);
    Alcotest.(check bool) "marks round-trip" true
      (Recorder.marks r2 = Recorder.marks rec_);
    Alcotest.(check bool) "hash preserved" true
      (Recorder.hash r2 = Recorder.hash rec_)

let test_chunked_damage_and_repair () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let rec_ = Recorder.of_ids (Array.init 40 (fun i -> i mod 11)) ~marks:[] in
  let key = Store.Key.of_parts [ "chunked"; "damage" ] in
  Store.Chunked.save ~segment_blocks:8 st ~key rec_;
  (* truncate one interior segment's container *)
  let seg_path i =
    Filename.concat dir
      (Filename.concat Store.Chunked.segment_kind
         (Store.Key.hex (Store.Chunked.seg_key key i) ^ ".bin"))
  in
  let whole = seg_path 2 in
  let ic = open_in_bin whole in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin whole in
  output_string oc (String.sub contents 0 (String.length contents / 2));
  close_out oc;
  Alcotest.(check bool) "damaged entry misses" true
    (Store.Chunked.load st ~key = None);
  Alcotest.(check bool) "damaged entry has no source" true
    (Store.Chunked.source st ~key = None);
  (* cached recomputes and the re-save repairs the broken segment *)
  let computed = ref 0 in
  let r =
    Store.Chunked.cached ~segment_blocks:8 (Some st) ~key (fun () ->
        incr computed;
        rec_)
  in
  Alcotest.(check int) "recomputed once" 1 !computed;
  Alcotest.(check bool) "repaired ids" true (ids_of r = ids_of rec_);
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "entry not healed by re-save"
  | Some r2 -> Alcotest.(check bool) "healed" true (ids_of r2 = ids_of rec_)

(* A warm replay served from the chunked entry — Source straight off the
   store, one segment resident at a time — must produce the same engine
   rows as replaying the recorder it was saved from. *)
let test_chunked_warm_replay_identical () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let prog, ids = random_program 3 30 in
  let layout = L.Original.layout prog in
  let rst = Random.State.make [| 5 |] in
  let trace = random_trace rst ids 5_000 in
  let rec_ = Recorder.of_ids trace ~marks:[] in
  let key = Store.Key.of_parts [ "chunked"; "warm-replay" ] in
  Store.Chunked.save ~segment_blocks:256 st ~key rec_;
  let cold = run_materialized prog layout trace in
  match Store.Chunked.source st ~key with
  | None -> Alcotest.fail "chunked source missing"
  | Some (m, source) ->
    Alcotest.(check int) "manifest blocks" 5_000 m.Store.Chunked.m_total_blocks;
    let warm =
      replay_stream (F.Stream.create (F.Packed.tables prog layout) source)
    in
    check_equal ~what:"warm chunked replay" cold warm

let suite =
  [
    QCheck_alcotest.to_alcotest prop_streamed_equals_materialized;
    Alcotest.test_case "empty trace streams" `Quick test_empty_trace;
    Alcotest.test_case "streamed residency is segment-bounded" `Quick
      test_resident_bound;
    Alcotest.test_case "chunked store round-trips ids and marks" `Quick
      test_chunked_roundtrip;
    Alcotest.test_case "chunked damage is detected and repaired" `Quick
      test_chunked_damage_and_repair;
    Alcotest.test_case "warm chunked replay row-identical" `Quick
      test_chunked_warm_replay_identical;
  ]
