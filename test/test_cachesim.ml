module Icache = Stc_cachesim.Icache

(* A naive reference cache model: per-set association lists with explicit
   LRU ordering, plus an LRU victim list. Deliberately simple and slow. *)
module Ref = struct
  type t = {
    assoc : int;
    line_bytes : int;
    n_sets : int;
    sets : int list array; (* most recent first *)
    mutable victim : int list; (* most recent first *)
    victim_lines : int;
  }

  let create ?(assoc = 1) ?(line_bytes = 32) ?(victim_lines = 0) ~size_bytes () =
    let n_sets = size_bytes / (assoc * line_bytes) in
    {
      assoc;
      line_bytes;
      n_sets;
      sets = Array.make n_sets [];
      victim = [];
      victim_lines;
    }

  let access t addr =
    let line = addr / t.line_bytes in
    let set = line mod t.n_sets in
    let contents = t.sets.(set) in
    if List.mem line contents then begin
      t.sets.(set) <- line :: List.filter (fun l -> l <> line) contents;
      true
    end
    else begin
      let contents = line :: contents in
      let evicted =
        if List.length contents > t.assoc then
          Some (List.nth contents t.assoc)
        else None
      in
      t.sets.(set) <-
        (match evicted with
        | Some e -> List.filter (fun l -> l <> e) contents
        | None -> contents);
      (* victim buffer *)
      if t.victim_lines = 0 then false
      else if List.mem line t.victim then begin
        (* swap: the probed line leaves the victim buffer, the evicted
           line enters it *)
        t.victim <- List.filter (fun l -> l <> line) t.victim;
        (match evicted with
        | Some e -> t.victim <- e :: t.victim
        | None -> ());
        true
      end
      else begin
        (match evicted with
        | Some e ->
          t.victim <- e :: t.victim;
          if List.length t.victim > t.victim_lines then
            t.victim <-
              List.filteri (fun i _ -> i < t.victim_lines) t.victim
        | None -> ());
        false
      end
    end
end

let run_both ~assoc ~victim_lines ~size_bytes addrs =
  let c = Icache.create ~assoc ~victim_lines ~size_bytes () in
  let r = Ref.create ~assoc ~victim_lines ~size_bytes () in
  List.iteri
    (fun i addr ->
      let hc = Icache.access c addr <> Icache.Miss
      and hr = Ref.access r addr in
      if hc <> hr then
        Alcotest.failf
          "divergence at access %d (addr %d): sim=%b ref=%b (assoc=%d victim=%d)"
          i addr hc hr assoc victim_lines)
    addrs

let gen_addrs seed n =
  let rng = Stc_util.Rng.create (Int64.of_int seed) in
  (* mix of sequential runs and jumps within a 64 KB region *)
  let addr = ref 0 in
  List.init n (fun _ ->
      if Stc_util.Rng.bernoulli rng 0.7 then addr := !addr + 4
      else addr := Stc_util.Rng.int rng 65536 land lnot 3;
      !addr)

let test_direct_mapped () = run_both ~assoc:1 ~victim_lines:0 ~size_bytes:1024 (gen_addrs 1 20_000)

let test_two_way () = run_both ~assoc:2 ~victim_lines:0 ~size_bytes:2048 (gen_addrs 2 20_000)

let test_four_way () = run_both ~assoc:4 ~victim_lines:0 ~size_bytes:4096 (gen_addrs 3 20_000)

let test_victim () = run_both ~assoc:1 ~victim_lines:16 ~size_bytes:1024 (gen_addrs 4 20_000)

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

let prop_vs_reference =
  QCheck.Test.make ~name:"cache simulator matches reference model" ~count:60
    QCheck.(
      triple (int_bound 10_000) (oneofl [ 1; 2; 4 ]) (oneofl [ 0; 4; 16 ]))
    (fun (seed, assoc, victim_lines) ->
      run_both ~assoc ~victim_lines ~size_bytes:(assoc * 1024)
        (gen_addrs seed 5_000);
      true)

let suite =
  [
    Alcotest.test_case "direct mapped vs reference" `Quick test_direct_mapped;
    Alcotest.test_case "2-way vs reference" `Quick test_two_way;
    Alcotest.test_case "4-way vs reference" `Quick test_four_way;
    Alcotest.test_case "victim cache vs reference" `Quick test_victim;
    Alcotest.test_case "outcomes" `Quick test_outcomes;
    Alcotest.test_case "create validation" `Quick test_create_validation;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_vs_reference ]
