module Rng = Stc_util.Rng

type t = { rows : (string * int array array) list }

let scaled sf base = max 1 (int_of_float (float_of_int base *. sf))

let gen_region () =
  Array.init 5 (fun i -> [| i; i |])

let gen_nation () =
  Array.init 25 (fun i -> [| i; i; Schema.nation_region i |])

let gen_supplier rng n =
  Array.init n (fun i ->
      [| i + 1; Rng.int rng 25; Rng.int_in rng (-99999) 999999 |])

let gen_customer rng n =
  Array.init n (fun i ->
      [|
        i + 1;
        Rng.int rng 25;
        Rng.int rng (Array.length Schema.segments);
        Rng.int_in rng (-99999) 999999;
      |])

let gen_part rng n =
  Array.init n (fun i ->
      [|
        i + 1;
        Rng.int rng Schema.n_brands;
        Rng.int rng Schema.n_types;
        Rng.int_in rng 1 50;
        Rng.int rng Schema.n_containers;
        90000 + Rng.int rng 100000;
      |])

let gen_partsupp rng ~n_parts ~n_suppliers =
  (* four suppliers per part, as in TPC-D *)
  let rows = ref [] in
  for p = 1 to n_parts do
    for k = 0 to 3 do
      let s = 1 + ((p + (k * ((n_suppliers / 4) + 1))) mod n_suppliers) in
      rows := [| p; s; 100 + Rng.int rng 99900; Rng.int_in rng 1 9999 |] :: !rows
    done
  done;
  Array.of_list (List.rev !rows)

let max_date = Schema.date 1998 12 2

let gen_orders rng n ~n_customers =
  Array.init n (fun i ->
      let odate = Rng.int rng (max_date - 150) in
      [|
        i + 1;
        1 + Rng.int rng n_customers;
        odate;
        Rng.int rng 2;
        Rng.int rng (Array.length Schema.priorities);
      |])

let gen_lineitem rng orders ~n_parts ~n_suppliers =
  let rows = ref [] in
  Array.iter
    (fun o ->
      let okey = o.(Schema.O.orderkey) and odate = o.(Schema.O.orderdate) in
      let n_lines = 1 + Rng.int rng 7 in
      for ln = 1 to n_lines do
        let partkey = 1 + Rng.int rng n_parts in
        let suppkey = 1 + Rng.int rng n_suppliers in
        let qty = 1 + Rng.int rng 50 in
        let price = (90000 + Rng.int rng 100000) * qty / 10 in
        let ship = odate + 1 + Rng.int rng 121 in
        let commit = odate + 30 + Rng.int rng 61 in
        let receipt = ship + 1 + Rng.int rng 30 in
        let shipped_past = ship <= max_date - 90 in
        let returnflag =
          if shipped_past then Rng.int rng 2 (* A or N *) else 1
        in
        let linestatus = if shipped_past then 0 else Rng.int rng 2 in
        rows :=
          [|
            okey;
            partkey;
            suppkey;
            ln;
            qty;
            price;
            Rng.int rng 11 (* discount 0.00-0.10 in % *);
            Rng.int rng 9 (* tax 0.00-0.08 *);
            returnflag;
            linestatus;
            ship;
            commit;
            receipt;
            Rng.int rng (Array.length Schema.shipmodes);
            Rng.int rng 4;
          |]
          :: !rows
      done)
    orders;
  Array.of_list (List.rev !rows)

(* Orders is the largest scaled table: below the smallest [sf] that
   gives it two rows, every scaled table clamps to one row, and every
   such [sf] generates one and the same data set. *)
let orders_base = 1_500_000

let min_sf =
  let ok sf = scaled sf orders_base >= 2 in
  let sf = ref (2.0 /. float_of_int orders_base) in
  while ok (Float.pred !sf) do
    sf := Float.pred !sf
  done;
  while not (ok !sf) do
    sf := Float.succ !sf
  done;
  !sf

let check_sf sf =
  if not (Float.is_finite sf && sf > 0.0) then
    invalid_arg
      (Printf.sprintf "Datagen.generate: sf must be finite and > 0, got %g" sf);
  if sf < min_sf then
    invalid_arg
      (Printf.sprintf
         "Datagen.generate: sf must be at least %.17g (below it every table \
          has one row), got %g"
         min_sf sf)

let generate ?(seed = 0x7C0DL) ~sf () =
  check_sf sf;
  let root = Rng.create seed in
  let rng name = Rng.named root ("datagen." ^ name) in
  let n_suppliers = scaled sf 10_000 in
  let n_customers = scaled sf 150_000 in
  let n_parts = scaled sf 200_000 in
  let n_orders = scaled sf orders_base in
  let supplier = gen_supplier (rng "supplier") n_suppliers in
  let customer = gen_customer (rng "customer") n_customers in
  let part = gen_part (rng "part") n_parts in
  let partsupp = gen_partsupp (rng "partsupp") ~n_parts ~n_suppliers in
  let orders = gen_orders (rng "orders") n_orders ~n_customers in
  let lineitem = gen_lineitem (rng "lineitem") orders ~n_parts ~n_suppliers in
  {
    rows =
      [
        ("region", gen_region ());
        ("nation", gen_nation ());
        ("supplier", supplier);
        ("customer", customer);
        ("part", part);
        ("partsupp", partsupp);
        ("orders", orders);
        ("lineitem", lineitem);
      ];
  }

let table t name = List.assoc name t.rows
