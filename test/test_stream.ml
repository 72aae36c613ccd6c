(* The segment-streamed trace pipeline: streamed replay must be an
   evaluation strategy, never an approximation.

   - property: over random programs, random traces and random segment
     sizes (1-block segments, a 1-block final segment, segment = trace
     length, empty trace), a bank of one over the stream reproduces
     the one over the compiled image exactly;
   - empty trace: a stream with no blocks replays like an empty image;
   - memory boundedness: the streamed engine's resident high-water mark
     is a function of the segment size, not the trace length;
   - chunked store: save/load round-trips ids and marks (marks on
     segment boundaries included), a damaged segment is detected and a
     re-save rewrites only that segment, and a warm replay of the loaded
     entry reproduces identical engine rows;
   - recorder chunks: at lengths around the chunk size, per-index reads,
     segments (a view inside one chunk, a copy across two), sources with
     and without a range, the of_ids/of_segments round trips and the
     hash agree with a plain id array;
   - property: the one-pass packer equals a per-index reference over
     random segmentations, empty and one-block segments included, and
     packing one segment at an offset writes exactly its own range. *)

module F = Stc_fetch
module L = Stc_layout
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Recorder = Stc_trace.Recorder
module Source = Stc_trace.Source
module Segment = Stc_trace.Segment
module Store = Stc_store
module Block = Stc_cfg.Block

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
  (F.Engine.Bank.run_packed
     [| F.Engine.Bank.spec ~icache ~trace_cache:tc () |]
     packed).(0)

(* A bank of one over a segment stream. *)
let replay_stream ?resident_hwm stream =
  let icache, tc = mk_state () in
  (F.Engine.Bank.run_stream ?resident_hwm
     [| F.Engine.Bank.spec ~icache ~trace_cache:tc () |]
     stream).(0)

let run_streamed ?resident_hwm prog layout trace ~segment_blocks =
  replay_stream ?resident_hwm
    (F.Stream.create (F.Packed.tables prog layout)
       (Source.of_array ~segment_blocks trace))

let check_equal ~what rm rs =
  if rm <> rs then Alcotest.failf "%s: engine result differs" what

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
  let rm = run_materialized prog layout [||] in
  let rs = run_streamed prog layout [||] ~segment_blocks:4 in
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
  (* a whole image is copied into the window one piece at a time, so
     the window holds one piece plus lookahead however long the image *)
  let piece = Source.default_segment_blocks in
  let image =
    F.Packed.compile prog layout
      (Source.of_array (random_trace st ids ((2 * piece) + 17)))
  in
  let full = ref 0 in
  ignore (replay_stream ~resident_hwm:full (F.Stream.of_packed image));
  Alcotest.(check bool)
    (Printf.sprintf "image replay resident %d words: one piece plus lookahead"
       !full)
    true
    (!full <= piece + 64)

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

let ids_of r = Source.to_array (Source.of_recorder r)

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

(* The file of the [i]th segment of the chunked entry at [key]. *)
let seg_path dir key i =
  Filename.concat dir
    (Filename.concat Store.Chunked.segment_kind
       (Store.Key.hex (Store.Chunked.seg_key key i) ^ ".bin"))

let test_chunked_damage_and_repair () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let rec_ = Recorder.of_ids (Array.init 40 (fun i -> i mod 11)) ~marks:[] in
  let key = Store.Key.of_parts [ "chunked"; "damage" ] in
  Store.Chunked.save ~segment_blocks:8 st ~key rec_;
  (* truncate one interior segment's container *)
  let whole = seg_path dir key 2 in
  let ic = open_in_bin whole in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin whole in
  output_string oc (String.sub contents 0 (String.length contents / 2));
  close_out oc;
  Alcotest.(check bool) "damaged entry misses" true
    (Store.Chunked.load st ~key = None);
  (* the re-save rewrites the broken segment and the manifest, and
     nothing else *)
  let writes () = (Store.stats st).Store.writes in
  let before = writes () in
  Store.Chunked.save ~segment_blocks:8 st ~key rec_;
  Alcotest.(check int) "one segment and the manifest rewritten" 2
    (writes () - before);
  let ic = open_in_bin whole in
  let repaired = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "broken segment rewritten" true (repaired = contents);
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "entry not healed by re-save"
  | Some r2 -> Alcotest.(check bool) "healed" true (ids_of r2 = ids_of rec_)

(* Two segment files swapped on disk: each container still passes its
   CRC, so only the manifest's per-entry checks can tell. *)
let test_chunked_reorder_and_repair () =
  with_dir @@ fun dir ->
  let st = Store.open_ dir in
  let rec_ = Recorder.of_ids (Array.init 40 (fun i -> i mod 11)) ~marks:[] in
  let key = Store.Key.of_parts [ "chunked"; "reorder" ] in
  Store.Chunked.save ~segment_blocks:8 st ~key rec_;
  let one = Test_store.read_file (seg_path dir key 1)
  and two = Test_store.read_file (seg_path dir key 2) in
  Test_store.write_file (seg_path dir key 1) two;
  Test_store.write_file (seg_path dir key 2) one;
  Alcotest.(check bool) "reordered entry misses" true
    (Store.Chunked.load st ~key = None);
  let writes () = (Store.stats st).Store.writes in
  let before = writes () in
  Store.Chunked.save ~segment_blocks:8 st ~key rec_;
  Alcotest.(check int) "both segments and the manifest rewritten" 3
    (writes () - before);
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "entry not healed by re-save"
  | Some r2 -> Alcotest.(check bool) "healed" true (ids_of r2 = ids_of rec_)

(* A warm replay of the chunked entry — loaded, then streamed from the
   loaded recorder into the bank — must produce the same engine rows as
   replaying the recorder it was saved from. *)
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
  match Store.Chunked.load st ~key with
  | None -> Alcotest.fail "chunked entry did not load"
  | Some r ->
    Alcotest.(check int) "loaded blocks" 5_000 (Recorder.length r);
    let warm =
      replay_stream
        (F.Stream.create (F.Packed.tables prog layout) (Source.of_recorder r))
    in
    check_equal ~what:"warm chunked replay" cold warm

(* ---------- recorder chunks ---------- *)

let chunk = Recorder.chunk_blocks

let chunk_lengths = [ 0; chunk - 1; chunk; chunk + 1; (3 * chunk) + 5 ]

(* ids unlike their indices, so an off-by-one shows *)
let ids_upto len = Array.init len (fun i -> (i * 7919) mod 100_003)

let sunk ids =
  let r = Recorder.create () in
  Array.iter (Recorder.sink r) ids;
  r

let segments_of source =
  let rec go acc =
    match Source.next_segment source with
    | None -> List.rev acc
    | Some s -> go (s :: acc)
  in
  go []

let ids_of_segments segs =
  Array.concat
    (List.map (fun s -> Array.init (Segment.length s) (Segment.get s)) segs)

(* Whether a segment's first id is stored in the recorder's own chunk:
   write through the segment's buffer (which no consumer may do) and
   read the recorder back, then undo the write. *)
let shares_storage r ~global seg =
  let ids = seg.Segment.ids in
  let before = Bigarray.Array1.get ids 0 in
  Bigarray.Array1.set ids 0 (-1);
  let shared =
    Source.to_array (Source.of_recorder ~lo:global ~hi:(global + 1) r)
    = [| -1 |]
  in
  Bigarray.Array1.set ids 0 before;
  shared

let check_recorder ~what ids r =
  Alcotest.(check int)
    (what ^ ": length") (Array.length ids) (Recorder.length r);
  if ids_of r <> ids then Alcotest.failf "%s: ids differ" what;
  Alcotest.(check int64)
    (what ^ ": hash = Fnv.ints")
    (Stc_util.Fnv.ints Stc_util.Fnv.empty ids)
    (Recorder.hash r)

let test_recorder_chunks () =
  List.iter
    (fun len ->
      let ids = ids_upto len in
      let marks = [ ("start", 0); ("end", len) ] in
      let r = sunk ids in
      check_recorder ~what:(Printf.sprintf "sunk len=%d" len) ids r;
      (* round trips *)
      let r1 = Recorder.of_ids ids ~marks in
      check_recorder ~what:(Printf.sprintf "of_ids len=%d" len) ids r1;
      Alcotest.(check bool) "of_ids marks" true (Recorder.marks r1 = marks);
      List.iter
        (fun (name, segs) ->
          let r2 = Recorder.of_segments segs ~marks in
          check_recorder
            ~what:(Printf.sprintf "of_segments (%s) len=%d" name len)
            ids r2;
          Alcotest.(check bool) "of_segments marks" true
            (Recorder.marks r2 = marks))
        [
          ("chunk views", segments_of (Source.of_recorder r));
          ( "1000-block",
            segments_of (Source.of_recorder ~segment_blocks:1000 r) );
          ( "with empty",
            Segment.of_array [||]
            :: segments_of (Source.of_array ~segment_blocks:chunk ids)
            @ [ Segment.of_array [||] ] );
        ])
    chunk_lengths

let test_recorder_segments () =
  let len = (3 * chunk) + 5 in
  let ids = ids_upto len in
  let r = sunk ids in
  let seg ~base ~blocks =
    let s = Recorder.segment r ~base ~blocks in
    Alcotest.(check int) "base" base (Segment.base s);
    if ids_of_segments [ s ] <> Array.sub ids base (Segment.length s) then
      Alcotest.failf "segment at %d: ids differ" base;
    s
  in
  let view ~base ~blocks =
    Alcotest.(check bool)
      (Printf.sprintf "[%d, +%d) is a view" base blocks)
      true
      (shares_storage r ~global:base (seg ~base ~blocks))
  in
  view ~base:10 ~blocks:100;
  view ~base:0 ~blocks:chunk;
  view ~base:chunk ~blocks:chunk;
  view ~base:(3 * chunk) ~blocks:5;
  view ~base:(chunk - 1) ~blocks:1;
  List.iter
    (fun (base, blocks) ->
      Alcotest.(check bool)
        (Printf.sprintf "[%d, +%d) straddles: a copy" base blocks)
        false
        (shares_storage r ~global:base (seg ~base ~blocks)))
    [ (chunk - 3, 10); (chunk - 1, 2); (0, chunk + 1); (chunk + 7, 2 * chunk) ];
  Alcotest.(check int) "tail truncates" 2
    (Segment.length (seg ~base:(len - 2) ~blocks:10));
  Alcotest.(check int) "empty at the end" 0
    (Segment.length (seg ~base:len ~blocks:10));
  Alcotest.check_raises "base past the end"
    (Invalid_argument "Recorder.segment: base out of range") (fun () ->
      ignore (Recorder.segment r ~base:(len + 1) ~blocks:1))

(* Every segment of a recorder source is a view of one chunk, bases run
   from 0 over [lo, hi), and the first segment of an unaligned range
   ends at the next chunk boundary. *)
let test_recorder_source () =
  List.iter
    (fun len ->
      let ids = ids_upto len in
      let r = sunk ids in
      let ranges =
        [ (None, None); (Some 5, None); (None, Some (chunk + 2));
          (Some (chunk - 3), Some (len - 1)); (Some (len / 2), Some (len / 2)) ]
      in
      List.iter
        (fun ((lo, hi), segment_blocks) ->
          let what =
            Printf.sprintf "len=%d lo=%s hi=%s seg=%s" len
              (match lo with Some l -> string_of_int l | None -> "-")
              (match hi with Some h -> string_of_int h | None -> "-")
              (match segment_blocks with
              | Some b -> string_of_int b
              | None -> "default")
          in
          let lo' = max 0 (Option.value lo ~default:0) in
          let hi' = min len (Option.value hi ~default:len) in
          let total = max 0 (hi' - lo') in
          let src = Source.of_recorder ?segment_blocks ?lo ?hi r in
          let segs = segments_of src in
          let expected = if total = 0 then [||] else Array.sub ids lo' total in
          if ids_of_segments segs <> expected then
            Alcotest.failf "%s: ids differ" what;
          let next = ref 0 in
          List.iter
            (fun s ->
              let n = Segment.length s in
              if Segment.base s <> !next then
                Alcotest.failf "%s: base %d, expected %d" what
                  (Segment.base s) !next;
              let g = lo' + !next in
              if n = 0 || g / chunk <> (g + n - 1) / chunk then
                Alcotest.failf "%s: segment at %d crosses a chunk" what g;
              if not (shares_storage r ~global:g s) then
                Alcotest.failf "%s: segment at %d is a copy" what g;
              next := !next + n)
            segs;
          match (segs, segment_blocks) with
          | s :: _, None when lo' mod chunk <> 0 ->
            Alcotest.(check int) (what ^ ": first segment ends on a boundary")
              (min hi' (((lo' / chunk) + 1) * chunk) - lo')
              (Segment.length s)
          | _ -> ())
        (List.concat_map
           (fun range -> [ (range, None); (range, Some 1000) ])
           ranges))
    chunk_lengths

(* ---------- the one-pass packer ---------- *)

(* Per-index reference: word i is block i's static fields plus a taken
   bit decided by the next index's block ([next_first] past the last
   index; [None] = true end of trace, which counts as taken). *)
let reference_packed prog layout trace ~next_first =
  let blocks = prog.Stc_cfg.Program.blocks in
  let addr b = L.Layout.address layout b in
  let n = Array.length trace in
  let words =
    Array.init n (fun i ->
        let b = trace.(i) in
        let blk = blocks.(b) in
        let taken =
          match if i + 1 < n then Some trace.(i + 1) else next_first with
          | None -> true
          | Some nb -> addr nb <> addr b + (blk.Block.size * Block.instr_bytes)
        in
        (addr b lsl F.Packed.addr_shift)
        lor (blk.Block.size lsl F.Packed.size_shift)
        lor (if Terminator.has_branch_instr blk.Block.term then
               F.Packed.branch_bit
             else 0)
        lor (match blk.Block.term with
            | Terminator.Cond _ -> F.Packed.cond_bit
            | _ -> 0)
        lor if taken then F.Packed.taken_bit else 0)
  in
  let instrs = Array.fold_left (fun a b -> a + blocks.(b).Block.size) 0 trace in
  let taken =
    Array.fold_left
      (fun a w -> if w land F.Packed.taken_bit <> 0 then a + 1 else a)
      0 words
  in
  (words, instrs, taken)

let check_packed ~what (words, instrs, taken) p =
  Alcotest.(check int)
    (what ^ ": length") (Array.length words) (F.Packed.length p);
  let raw = F.Packed.raw p in
  Array.iteri
    (fun i w -> if raw.(i) <> w then Alcotest.failf "%s: word %d differs" what i)
    words;
  Alcotest.(check int) (what ^ ": instrs") instrs (F.Packed.total_instrs p);
  Alcotest.(check int) (what ^ ": taken") taken (F.Packed.taken_branches p)

(* [Packed.fill] of one segment at a nonzero offset into a
   sentinel-filled array: it writes exactly [pos, pos + length), those
   words are the reference's, and it returns the reference totals. *)
let check_fill ~what tb seg ~next_first ~pos (words, instrs, taken) =
  let n = Array.length words in
  let dst = Array.make (pos + n + 3) (-1) in
  let totals = F.Packed.fill tb dst ~pos seg ~next_first in
  Array.iteri
    (fun i w ->
      let expect = if i >= pos && i < pos + n then words.(i - pos) else -1 in
      if w <> expect then Alcotest.failf "%s: word %d differs" what i)
    dst;
  Alcotest.(check (pair int int)) (what ^ ": totals") (instrs, taken) totals

let prop_packer_equals_reference =
  QCheck.Test.make ~name:"one-pass packer == per-index reference" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 300))
    (fun (seed, len) ->
      let st = Random.State.make [| seed; len; 3 |] in
      let prog, ids = random_program seed (2 + Random.State.int st 30) in
      (* a shuffled layout, so both sequential and taken transitions occur *)
      let order = Array.copy ids in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let layout =
        if Random.State.bool st then L.Original.layout prog
        else L.Layout.of_block_order prog ~name:"shuffled" order
      in
      let tb = F.Packed.tables prog layout in
      let trace = random_trace st ids len in
      (* random cuts: empty, one-block and longer segments *)
      let rec cut pos acc =
        if pos >= len && Random.State.bool st then List.rev acc
        else
          let n =
            match Random.State.int st 4 with
            | 0 -> 0
            | 1 -> 1
            | _ -> Random.State.int st 40
          in
          let n = min n (len - pos) in
          let seg = Segment.of_array ~base:pos (Array.sub trace pos n) in
          cut (pos + n) (seg :: acc)
      in
      let segs = cut 0 [] in
      check_packed ~what:"whole trace"
        (reference_packed prog layout trace ~next_first:None)
        (F.Packed.compile prog layout (Source.of_segments segs));
      (* per segment, the boundary taken bit from the next non-empty one *)
      let rec per_segment = function
        | [] -> ()
        | s :: rest ->
          let next_first =
            List.find_map
              (fun s' ->
                if Segment.length s' > 0 then Some (Segment.first s') else None)
              rest
          in
          let ids = ids_of_segments [ s ] in
          check_fill
            ~what:(Printf.sprintf "segment at %d" (Segment.base s))
            tb s ~next_first
            ~pos:(1 + Random.State.int st 5)
            (reference_packed prog layout ids ~next_first);
          per_segment rest
      in
      per_segment segs;
      (* a lone segment followed by an arbitrary block *)
      let next_first = Some ids.(Random.State.int st (Array.length ids)) in
      check_fill ~what:"lone segment" tb (Segment.of_array trace) ~next_first
        ~pos:(1 + Random.State.int st 5)
        (reference_packed prog layout trace ~next_first);
      true)

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
    Alcotest.test_case "reordered chunked segments are detected and repaired"
      `Quick test_chunked_reorder_and_repair;
    Alcotest.test_case "warm chunked replay row-identical" `Quick
      test_chunked_warm_replay_identical;
    Alcotest.test_case "recorder chunk boundaries" `Quick test_recorder_chunks;
    Alcotest.test_case "recorder segments: views and copies" `Quick
      test_recorder_segments;
    Alcotest.test_case "recorder sources are chunk views" `Quick
      test_recorder_source;
    QCheck_alcotest.to_alcotest prop_packer_equals_reference;
  ]
