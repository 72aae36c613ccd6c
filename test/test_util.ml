open Stc_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_named_independent () =
  let r = Rng.create 42L in
  let a = Rng.named r "alpha" and b = Rng.named r "beta" in
  Alcotest.(check bool) "different streams" true (Rng.int64 a <> Rng.int64 b);
  let a' = Rng.named r "alpha" in
  Alcotest.(check int64) "named is stable" (Rng.int64 (Rng.named r "alpha")) (Rng.int64 a');
  ignore b

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 10_000 do
    let x = Rng.float r 3.0 in
    Alcotest.(check bool) "float in range" true (x >= 0.0 && x < 3.0)
  done

let test_rng_bernoulli () =
  let r = Rng.create 9L in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "about 0.3" true (abs_float (p -. 0.3) < 0.01)

let test_stats_cumulative () =
  let counts = [| 50; 30; 15; 5 |] in
  let shares = Stats.cumulative_share counts in
  check_float "first" 0.5 shares.(0);
  check_float "second" 0.8 shares.(1);
  check_float "all" 1.0 shares.(3)

let test_histo () =
  let h = Histo.create () in
  Histo.add h 0;
  Histo.add h 10;
  Histo.add h ~weight:2 1000;
  Alcotest.(check int) "total" 4 (Histo.total h);
  check_float "below 1" 0.25 (Histo.mass_below h 1);
  check_float "below 2000" 1.0 (Histo.mass_below h 2048);
  Alcotest.(check bool) "below 100 excludes the 1000s" true
    (abs_float (Histo.mass_below h 128 -. 0.5) < 1e-9)

let test_bits () =
  Alcotest.(check int) "log2 1024" 10 (Bits.log2_exact 1024);
  Alcotest.(check int) "log2_ceil 1000" 10 (Bits.log2_ceil 1000);
  Alcotest.(check bool) "pow2" true (Bits.is_pow2 4096);
  Alcotest.(check bool) "not pow2" false (Bits.is_pow2 4095);
  Alcotest.check_raises "log2_exact rejects"
    (Invalid_argument "Bits.log2_exact: not a power of two") (fun () ->
      ignore (Bits.log2_exact 3))

let test_tbl_render () =
  let t = Tbl.create ~headers:[ ("name", Tbl.Left); ("value", Tbl.Right) ] in
  Tbl.add_row t [ "x"; "1" ];
  Tbl.add_row t [ "longer"; "23" ];
  let s = Tbl.render t in
  Alcotest.(check bool) "contains header" true
    (Astring_like.contains s "name");
  Alcotest.(check bool) "right aligned" true (Astring_like.contains s "    1")

let qcheck_tests =
  [
    QCheck.Test.make ~name:"histo mass_below monotone" ~count:200
      QCheck.(pair (list (int_range 0 100000)) (pair (int_range 0 200000) (int_range 0 200000)))
      (fun (vs, (a, b)) ->
        let h = Histo.create () in
        List.iter (Histo.add h) vs;
        let lo = min a b and hi = max a b in
        Histo.mass_below h lo <= Histo.mass_below h hi +. 1e-9);
  ]

let test_crc32 () =
  (* the standard CRC-32/IEEE check value *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "sub agrees with string" (Crc32.string "456")
    (Crc32.sub "123456789" ~pos:3 ~len:3);
  Alcotest.check_raises "sub bounds"
    (Invalid_argument "Crc32.sub") (fun () ->
      ignore (Crc32.sub "abc" ~pos:2 ~len:5));
  (* a single flipped bit always changes the checksum *)
  let s = String.init 64 Char.chr in
  let flipped i =
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
      s
  in
  for i = 0 to 63 do
    Alcotest.(check bool) "bit flip detected" true
      (Crc32.string (flipped i) <> Crc32.string s)
  done

let test_fnv () =
  Alcotest.(check int64) "offset basis" 0xCBF29CE484222325L Fnv.empty;
  Alcotest.(check int) "hex length" 16 (String.length (Fnv.to_hex Fnv.empty));
  (* string absorbs bytes; empty string is the identity *)
  Alcotest.(check int64) "empty string is identity" Fnv.empty
    (Fnv.string Fnv.empty "");
  Alcotest.(check bool) "order matters" true
    (Fnv.string (Fnv.string Fnv.empty "a") "b"
    <> Fnv.string (Fnv.string Fnv.empty "b") "a");
  Alcotest.(check bool) "floats hash by bits" true
    (Fnv.float Fnv.empty 0.0 <> Fnv.float Fnv.empty (-0.0));
  let arr = [| 5; 7; 11; 13 |] in
  Alcotest.(check int64) "ints = fold int"
    (Array.fold_left Fnv.int Fnv.empty arr)
    (Fnv.ints Fnv.empty arr);
  Alcotest.(check int64) "ints ~len prefix"
    (Fnv.ints Fnv.empty [| 5; 7 |])
    (Fnv.ints ~len:2 Fnv.empty arr)

let suite =
  [
    Alcotest.test_case "crc32" `Quick test_crc32;
    Alcotest.test_case "fnv" `Quick test_fnv;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng named" `Quick test_rng_named_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng bernoulli" `Quick test_rng_bernoulli;
    Alcotest.test_case "stats cumulative" `Quick test_stats_cumulative;
    Alcotest.test_case "histo" `Quick test_histo;
    Alcotest.test_case "bits" `Quick test_bits;
    Alcotest.test_case "tbl render" `Quick test_tbl_render;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
