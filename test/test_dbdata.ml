module S = Stc_dbdata.Schema
module Datagen = Stc_dbdata.Datagen

let data = lazy (Datagen.generate ~sf:0.002 ())

let rows d name = Array.length (Datagen.table d name)

let test_row_counts_scale () =
  let d = Lazy.force data in
  Alcotest.(check int) "region" 5 (rows d "region");
  Alcotest.(check int) "nation" 25 (rows d "nation");
  Alcotest.(check int) "supplier" 20 (rows d "supplier");
  Alcotest.(check int) "customer" 300 (rows d "customer");
  Alcotest.(check int) "part" 400 (rows d "part");
  Alcotest.(check int) "partsupp" 1600 (rows d "partsupp");
  Alcotest.(check int) "orders" 3000 (rows d "orders");
  (* lineitem: 1-7 lines per order, ~4 on average *)
  let li = rows d "lineitem" in
  Alcotest.(check bool) "lineitem in range" true (li > 3000 && li < 21000)

let test_schema_widths () =
  let d = Lazy.force data in
  List.iter
    (fun tbl ->
      Array.iter
        (fun row ->
          if Array.length row <> tbl.S.width then
            Alcotest.failf "%s: row width %d <> %d" tbl.S.name
              (Array.length row) tbl.S.width)
        (Datagen.table d tbl.S.name))
    S.all

let test_keys_dense () =
  let d = Lazy.force data in
  let orders = Datagen.table d "orders" in
  Array.iteri
    (fun i row ->
      Alcotest.(check int) "o_orderkey dense" (i + 1) row.(S.O.orderkey))
    orders

let test_foreign_keys_valid () =
  let d = Lazy.force data in
  let n_cust = rows d "customer" in
  let n_part = rows d "part" in
  let n_supp = rows d "supplier" in
  Array.iter
    (fun o ->
      let c = o.(S.O.custkey) in
      if c < 1 || c > n_cust then Alcotest.failf "bad o_custkey %d" c)
    (Datagen.table d "orders");
  Array.iter
    (fun l ->
      let p = l.(S.L.partkey) and s = l.(S.L.suppkey) in
      if p < 1 || p > n_part then Alcotest.failf "bad l_partkey %d" p;
      if s < 1 || s > n_supp then Alcotest.failf "bad l_suppkey %d" s)
    (Datagen.table d "lineitem")

let test_lineitem_dates_ordered () =
  let d = Lazy.force data in
  Array.iter
    (fun l ->
      let ship = l.(S.L.shipdate) and receipt = l.(S.L.receiptdate) in
      if receipt <= ship then
        Alcotest.failf "receipt %d <= ship %d" receipt ship)
    (Datagen.table d "lineitem")

let test_deterministic () =
  let a = Datagen.generate ~seed:9L ~sf:0.001 () in
  let b = Datagen.generate ~seed:9L ~sf:0.001 () in
  Alcotest.(check bool) "same data" true
    (Datagen.table a "lineitem" = Datagen.table b "lineitem");
  let c = Datagen.generate ~seed:10L ~sf:0.001 () in
  Alcotest.(check bool) "different seed differs" true
    (Datagen.table a "lineitem" <> Datagen.table c "lineitem")

let test_schema_lookup () =
  Alcotest.(check int) "column index" S.L.shipdate
    (S.column (S.find "lineitem") "l_shipdate");
  Alcotest.(check string) "find" "orders" (S.find "orders").S.name;
  Alcotest.check_raises "unknown table" Not_found (fun () ->
      ignore (S.find "nope"))

let test_date_encoding () =
  Alcotest.(check int) "epoch" 0 (S.date 1992 1 1);
  Alcotest.(check bool) "monotone" true (S.date 1995 6 15 < S.date 1996 1 1);
  Alcotest.(check int) "one year" 360 (S.date 1993 1 1)

let suite =
  [
    Alcotest.test_case "row counts scale" `Quick test_row_counts_scale;
    Alcotest.test_case "schema widths" `Quick test_schema_widths;
    Alcotest.test_case "dense keys" `Quick test_keys_dense;
    Alcotest.test_case "foreign keys valid" `Quick test_foreign_keys_valid;
    Alcotest.test_case "lineitem dates ordered" `Quick test_lineitem_dates_ordered;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "date encoding" `Quick test_date_encoding;
  ]
