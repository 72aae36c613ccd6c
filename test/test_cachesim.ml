module Icache = Stc_cachesim.Icache

(* The i-cache against Stc_check's list-based oracle, the one reference
   model of the cache: each case drives both with the same seeded stream
   of demand accesses and prefetch fills. *)
let vs_reference ~seed ~assoc ~victim_lines ~size_bytes () =
  match
    Stc_check.diff_icache_stream ~seed ~assoc ~victim_lines ~size_bytes ()
  with
  | None -> ()
  | Some msg ->
    Alcotest.failf "diverged (assoc=%d victim=%d): %s" assoc victim_lines msg

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Icache.Hit -> "hit"
        | Icache.Prefetch_hit -> "prefetch-hit"
        | Icache.Victim_hit -> "victim-hit"
        | Icache.Miss -> "miss"))
    ( = )

let test_outcomes () =
  let c = Icache.create ~victim_lines:1 ~size_bytes:1024 () in
  let access what want addr =
    Alcotest.check outcome what want (Icache.access c addr)
  in
  access "cold" Icache.Miss 0;
  access "warm" Icache.Hit 0;
  (* 4096 conflicts with 0 in a 1KB direct-mapped cache, pushing 0 into
     the one-line victim buffer *)
  access "conflict" Icache.Miss 4096;
  access "swapped back" Icache.Victim_hit 0;
  Icache.fill_prefetch c 64;
  access "prefetched" Icache.Prefetch_hit 64;
  access "mark consumed" Icache.Hit 64;
  (* a prefetch of a resident line leaves no mark *)
  Icache.fill_prefetch c 0;
  access "resident" Icache.Hit 0;
  Alcotest.(check int) "LRU counts no evictions" 0 (Icache.evictions c)

let test_create_validation () =
  Alcotest.check_raises "bad line size"
    (Invalid_argument "Icache.create: line_bytes must be a power of two")
    (fun () -> ignore (Icache.create ~line_bytes:33 ~size_bytes:1024 ()));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Icache.create: size must be a multiple of assoc * line")
    (fun () -> ignore (Icache.create ~size_bytes:1000 ()));
  Alcotest.check_raises "negative victim buffer"
    (Invalid_argument "Icache.create: victim_lines must be >= 0")
    (fun () -> ignore (Icache.create ~victim_lines:(-1) ~size_bytes:1024 ()))

(* The LRU twin of test_prefetch's SRRIP and TRRIP stream properties. *)
let prop_vs_reference =
  QCheck.Test.make ~name:"cache simulator matches reference model" ~count:50
    QCheck.(make Test_prefetch.gen_geometry)
    (Test_prefetch.check_stream ~policy:Icache.Lru ~name:"lru")

let suite =
  [
    Alcotest.test_case "direct mapped vs reference" `Quick
      (vs_reference ~seed:1 ~assoc:1 ~victim_lines:0 ~size_bytes:1024);
    Alcotest.test_case "2-way vs reference" `Quick
      (vs_reference ~seed:2 ~assoc:2 ~victim_lines:0 ~size_bytes:2048);
    Alcotest.test_case "4-way vs reference" `Quick
      (vs_reference ~seed:3 ~assoc:4 ~victim_lines:0 ~size_bytes:4096);
    Alcotest.test_case "victim cache vs reference" `Quick
      (vs_reference ~seed:4 ~assoc:1 ~victim_lines:16 ~size_bytes:1024);
    Alcotest.test_case "outcomes" `Quick test_outcomes;
    Alcotest.test_case "create validation" `Quick test_create_validation;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_vs_reference ]
