module F = Stc_fetch
module L = Stc_layout
module Builder = Stc_cfg.Builder
module Terminator = Stc_cfg.Terminator
module Recorder = Stc_trace.Recorder

(* ---------- a tiny hand-built stream with known answers ---------- *)

(* One procedure, three blocks laid out contiguously:
     b0: 4 instrs, cond (taken -> b2 / fallthru -> b1)
     b1: 4 instrs, fall -> b2
     b2: 8 instrs, ret
   Addresses (orig): b0 @0, b1 @16, b2 @32. *)
let tiny () =
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let b0 = Builder.new_block b ~pid:p ~size:4 in
  let b1 = Builder.new_block b ~pid:p ~size:4 in
  let b2 = Builder.new_block b ~pid:p ~size:8 in
  Builder.set_term b b0 (Terminator.Cond { taken = b2; fallthru = b1 });
  Builder.set_term b b1 (Terminator.Fall b2);
  Builder.set_term b b2 Terminator.Ret;
  Builder.finish_proc b ~pid:p ~entry:b0 ~blocks:[| b0; b1; b2 |];
  (Builder.build b, b0, b1, b2)

let record blocks =
  let r = Recorder.create () in
  List.iter (Recorder.sink r) blocks;
  r

let test_ideal_single_window () =
  (* b0,b1,b2 = 16 sequential instructions starting at 0: exactly one
     16-wide aligned fetch (2 branches: the not-taken cond of b0, the
     final ret) *)
  let prog, b0, b1, b2 = tiny () in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_trace.Source.of_recorder (record [ b0; b1; b2 ])) in
  let r = F.Engine.run view in
  Alcotest.(check int) "instrs" 16 r.F.Engine.instrs;
  Alcotest.(check int) "cycles" 1 r.F.Engine.cycles

let test_taken_branch_splits_fetch () =
  (* b0 jumps to b2 (skipping b1): two fetch cycles (the taken branch ends
     the first) *)
  let prog, b0, _b1, b2 = tiny () in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_trace.Source.of_recorder (record [ b0; b2 ])) in
  let r = F.Engine.run view in
  Alcotest.(check int) "instrs" 12 r.F.Engine.instrs;
  Alcotest.(check int) "cycles" 2 r.F.Engine.cycles

let test_branch_limit () =
  (* Six 1-instruction cond blocks, all not-taken, in 6 sequential
     instructions: the 3-branch limit forces a second fetch cycle. *)
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let ids = Array.init 6 (fun _ -> Builder.new_block b ~pid:p ~size:1) in
  Array.iteri
    (fun i bid ->
      if i < 5 then
        Builder.set_term b bid
          (Terminator.Cond { taken = ids.(5); fallthru = ids.(i + 1) })
      else Builder.set_term b bid Terminator.Ret)
    ids;
  Builder.finish_proc b ~pid:p ~entry:ids.(0) ~blocks:ids;
  let prog = Builder.build b in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_trace.Source.of_recorder (record (Array.to_list ids))) in
  let r = F.Engine.run view in
  Alcotest.(check int) "instrs" 6 r.F.Engine.instrs;
  Alcotest.(check int) "cycles" 2 r.F.Engine.cycles

let test_miss_penalty () =
  let prog, b0, b1, b2 = tiny () in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_trace.Source.of_recorder (record [ b0; b1; b2 ])) in
  let icache = Stc_cachesim.Icache.create ~size_bytes:1024 () in
  let r = F.Engine.run ~icache view in
  (* one fetch cycle + one 5-cycle compulsory-miss penalty *)
  Alcotest.(check int) "cycles with penalty" 6 r.F.Engine.cycles;
  Alcotest.(check bool) "some miss" true (r.F.Engine.icache_misses > 0)

let test_window_alignment () =
  (* a block starting mid-window limits the first fetch *)
  let b = Builder.create () in
  let p = Builder.declare_proc b ~name:"p" ~subsystem:Stc_cfg.Proc.Other in
  let big = Builder.new_block b ~pid:p ~size:40 in
  Builder.set_term b big Terminator.Ret;
  Builder.finish_proc b ~pid:p ~entry:big ~blocks:[| big |];
  let prog = Builder.build b in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_trace.Source.of_recorder (record [ big ])) in
  let r = F.Engine.run view in
  (* 40 instrs from address 0: 16 + 16 + 8 = 3 cycles *)
  Alcotest.(check int) "cycles" 3 r.F.Engine.cycles;
  Alcotest.(check int) "instrs" 40 r.F.Engine.instrs

(* ---------- conservation properties over the real pipeline ---------- *)

let fixture =
  lazy
    (let config =
       { Stc_core.Pipeline.quick_config with Stc_core.Pipeline.sf = 0.0003 }
     in
     Stc_core.Pipeline.run ~config ())

let test_instr_conservation () =
  let pl = Lazy.force fixture in
  let prog = pl.Stc_core.Pipeline.program in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_core.Pipeline.test_source pl) in
  let expected = ref 0 in
  for i = 0 to F.View.length view - 1 do
    expected := !expected + F.View.block_size view i
  done;
  let expected = !expected in
  List.iter
    (fun (icache, tc) ->
      let r =
        F.Engine.run ?icache ?trace_cache:tc view
      in
      Alcotest.(check int) "every instruction fetched exactly once" expected
        r.F.Engine.instrs;
      Alcotest.(check bool) "bandwidth <= 16" true (F.Engine.bandwidth r <= 16.0);
      Alcotest.(check bool) "cycles >= instrs/16" true
        (r.F.Engine.cycles * 16 >= r.F.Engine.instrs))
    [
      (None, None);
      (Some (Stc_cachesim.Icache.create ~size_bytes:8192 ()), None);
      ( Some (Stc_cachesim.Icache.create ~size_bytes:8192 ()),
        Some (F.Tracecache.create ()) );
    ]

let test_penalty_only_adds_cycles () =
  let pl = Lazy.force fixture in
  let prog = pl.Stc_core.Pipeline.program in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_core.Pipeline.test_source pl) in
  let ideal = F.Engine.run view in
  let icache = Stc_cachesim.Icache.create ~size_bytes:8192 () in
  let real = F.Engine.run ~icache view in
  Alcotest.(check int) "same fetch cycles" ideal.F.Engine.fetch_cycles
    real.F.Engine.fetch_cycles;
  Alcotest.(check bool) "penalties only add" true
    (real.F.Engine.cycles >= ideal.F.Engine.cycles)

let test_bigger_cache_fewer_misses () =
  let pl = Lazy.force fixture in
  let prog = pl.Stc_core.Pipeline.program in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_core.Pipeline.test_source pl) in
  let misses size =
    let icache = Stc_cachesim.Icache.create ~size_bytes:size () in
    (F.Engine.run ~icache view).F.Engine.icache_misses
  in
  let m8 = misses 8192 and m64 = misses 65536 in
  Alcotest.(check bool) "64KB <= 8KB misses" true (m64 <= m8)

let test_trace_cache_improves () =
  let pl = Lazy.force fixture in
  let prog = pl.Stc_core.Pipeline.program in
  let layout = L.Original.layout prog in
  let view = F.View.create prog layout (Stc_core.Pipeline.test_source pl) in
  let without =
    F.Engine.run
      ~icache:(Stc_cachesim.Icache.create ~size_bytes:16384 ())
      view
  in
  let with_tc =
    F.Engine.run
      ~icache:(Stc_cachesim.Icache.create ~size_bytes:16384 ())
      ~trace_cache:(F.Tracecache.create ()) view
  in
  Alcotest.(check bool) "trace cache helps bandwidth" true
    (F.Engine.bandwidth with_tc > F.Engine.bandwidth without);
  Alcotest.(check bool) "some trace cache hits" true
    (with_tc.F.Engine.tc_hits > 0)

(* ---------- packed view: agreement with the View ---------- *)

(* Random programs: skeletons compiled and auto-walked (the same recipe
   as test_trace), paired with a random permutation layout. *)
module Skeleton = Stc_trace.Skeleton
module Bytecode = Stc_trace.Bytecode
module Walker = Stc_trace.Walker

let gen_skeleton : Skeleton.t QCheck.Gen.t =
  let open QCheck.Gen in
  let site_counter = ref 0 in
  let fresh_site () =
    incr site_counter;
    Printf.sprintf "pk%d" !site_counter
  in
  let rec gen_stmt depth =
    let base =
      [
        (3, map (fun n -> Skeleton.straight (1 + n)) (int_bound 6));
        ( 1,
          let* p = float_range 0.05 0.5 in
          return
            (Skeleton.if_ ~p (fresh_site ())
               [ Skeleton.straight 2; Skeleton.return ]) );
      ]
    in
    let nested =
      if depth <= 0 then []
      else
        [
          ( 2,
            let* p = float_range 0.05 0.95 in
            let* body = list_size (int_range 1 3) (gen_stmt (depth - 1)) in
            return (Skeleton.if_ ~p (fresh_site ()) body) );
          ( 1,
            let* p = float_range 0.05 0.6 in
            let* body = list_size (int_range 1 3) (gen_stmt (depth - 1)) in
            return (Skeleton.while_ ~p (fresh_site ()) body) );
        ]
    in
    frequency (base @ nested)
  in
  list_size (int_range 1 5) (gen_stmt 2)

(* Compile and walk a skeleton into a (program, recorded trace) pair. *)
let trace_of_skeleton skel =
  let b = Builder.create () in
  let pid = Builder.declare_proc b ~name:"auto" ~subsystem:Stc_cfg.Proc.Other in
  let code_auto = Bytecode.compile b ~pid ~resolve:(Builder.pid_of_name b) skel in
  let prog = Builder.build b in
  let rec_ = Recorder.create () in
  let code = Array.make 1 (Some code_auto) in
  let w =
    Walker.create ~program:prog ~code ~seed:11L ~sink:(Recorder.sink rec_)
  in
  for _ = 1 to 3 do
    Walker.auto_run w pid
  done;
  (prog, rec_)

let random_layout prog seed =
  let n = Array.length prog.Stc_cfg.Program.blocks in
  let order = Array.init n (fun i -> i) in
  let st = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  L.Layout.of_block_order prog ~name:"shuffled" order

let test_engine_run_equals_run_packed () =
  (* [run view] streams the view; a compiled image of the same trace
     must replay to the same result, byte for byte *)
  let prog, b0, b1, b2 = tiny () in
  let layout = L.Original.layout prog in
  let trace = record [ b0; b1; b2; b0; b2 ] in
  let view =
    F.View.create prog layout (Stc_trace.Source.of_recorder trace)
  in
  let a = F.Engine.run view in
  let b =
    (F.Engine.Bank.run_packed
       [| F.Engine.Bank.spec () |]
       (F.Packed.compile prog layout (Stc_trace.Source.of_recorder trace))).(0)
  in
  Alcotest.(check bool) "equal" true (a = b)

let test_config_validation () =
  let rejects what msg f =
    Alcotest.check_raises what (Invalid_argument ("Engine.Config.make: " ^ msg))
      (fun () -> ignore (f ()))
  in
  let line_msg = "line_bytes must be a power of two >= 4" in
  rejects "line 0" line_msg (fun () -> F.Engine.Config.make ~line_bytes:0 ());
  rejects "line 1" line_msg (fun () -> F.Engine.Config.make ~line_bytes:1 ());
  rejects "line 2" line_msg (fun () -> F.Engine.Config.make ~line_bytes:2 ());
  rejects "line 48" line_msg (fun () -> F.Engine.Config.make ~line_bytes:48 ());
  rejects "branches" "max_branches must be >= 1" (fun () ->
      F.Engine.Config.make ~max_branches:0 ());
  rejects "penalty" "miss_penalty must be >= 0" (fun () ->
      F.Engine.Config.make ~miss_penalty:(-1) ());
  (* the boundary values are accepted *)
  let c =
    F.Engine.Config.make ~line_bytes:4 ~max_branches:1 ~miss_penalty:0 ()
  in
  Alcotest.(check int) "line 4" 4 c.F.Engine.Config.line_bytes

(* Trace-cache geometry and predictor shape, each rejected by name. *)
let test_constructor_validation () =
  let rejects what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  rejects "entries" "Tracecache.create: entries must be a power of two"
    (fun () -> F.Tracecache.create ~entries:3 ());
  rejects "width" "Tracecache.create: width must be >= 1" (fun () ->
      F.Tracecache.create ~width:0 ());
  rejects "branches" "Tracecache.create: max_branches must be >= 1"
    (fun () -> F.Tracecache.create ~max_branches:0 ());
  rejects "table" "Predictor.create: table size must be a power of two"
    (fun () -> F.Predictor.create (F.Predictor.Bimodal 3));
  rejects "history" "Predictor.create: history bits must be >= 0" (fun () ->
      F.Predictor.create (F.Predictor.Gshare (16, -1)));
  (* the boundary values are accepted *)
  let tc = F.Tracecache.create ~entries:1 ~width:1 ~max_branches:1 () in
  Alcotest.(check int) "width 1" 1 (F.Tracecache.width tc);
  ignore (F.Predictor.create (F.Predictor.Gshare (16, 0)))

(* The i-cache's line is the engine's: a 64-byte-line config over a
   32-byte-line cache would fetch lines 2k and 2k+2 of the cache and skip
   2k+1, so the spec is rejected, naming both sizes. *)
let test_spec_line_validation () =
  let config = F.Engine.Config.make ~line_bytes:64 () in
  let icache line_bytes =
    Stc_cachesim.Icache.create ?line_bytes ~size_bytes:1024 ()
  in
  Alcotest.check_raises "foreign line"
    (Invalid_argument
       "Engine.Bank.spec: i-cache line_bytes 32 differs from the config's \
        line_bytes 64")
    (fun () -> ignore (F.Engine.Bank.spec ~config ~icache:(icache None) ()));
  let sp = F.Engine.Bank.spec ~config ~icache:(icache (Some 64)) () in
  Alcotest.(check int) "same line accepted" 64
    sp.F.Engine.Bank.config.F.Engine.Config.line_bytes;
  ignore (F.Engine.Bank.spec ~config ())

let suite =
  [
    Alcotest.test_case "ideal single window" `Quick test_ideal_single_window;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "constructor validation" `Quick
      test_constructor_validation;
    Alcotest.test_case "bank spec line validation" `Quick
      test_spec_line_validation;
    Alcotest.test_case "taken branch splits fetch" `Quick
      test_taken_branch_splits_fetch;
    Alcotest.test_case "3-branch limit" `Quick test_branch_limit;
    Alcotest.test_case "miss penalty" `Quick test_miss_penalty;
    Alcotest.test_case "window alignment" `Quick test_window_alignment;
    Alcotest.test_case "instruction conservation" `Quick test_instr_conservation;
    Alcotest.test_case "penalty only adds cycles" `Quick
      test_penalty_only_adds_cycles;
    Alcotest.test_case "bigger cache fewer misses" `Quick
      test_bigger_cache_fewer_misses;
    Alcotest.test_case "trace cache improves bandwidth" `Quick
      test_trace_cache_improves;
    Alcotest.test_case "run = run_packed" `Quick test_engine_run_equals_run_packed;
  ]
