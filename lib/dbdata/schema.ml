type table = { name : string; columns : string array; width : int }

let mk name columns =
  { name; columns = Array.of_list columns; width = List.length columns }

let region = mk "region" [ "r_regionkey"; "r_name" ]

let nation = mk "nation" [ "n_nationkey"; "n_name"; "n_regionkey" ]

let supplier = mk "supplier" [ "s_suppkey"; "s_nationkey"; "s_acctbal" ]

let customer =
  mk "customer" [ "c_custkey"; "c_nationkey"; "c_mktsegment"; "c_acctbal" ]

let part =
  mk "part"
    [ "p_partkey"; "p_brand"; "p_type"; "p_size"; "p_container"; "p_retailprice" ]

let partsupp =
  mk "partsupp" [ "ps_partkey"; "ps_suppkey"; "ps_supplycost"; "ps_availqty" ]

let orders =
  mk "orders"
    [ "o_orderkey"; "o_custkey"; "o_orderdate"; "o_shippriority"; "o_orderpriority" ]

let lineitem =
  mk "lineitem"
    [
      "l_orderkey";
      "l_partkey";
      "l_suppkey";
      "l_linenumber";
      "l_quantity";
      "l_extendedprice";
      "l_discount";
      "l_tax";
      "l_returnflag";
      "l_linestatus";
      "l_shipdate";
      "l_commitdate";
      "l_receiptdate";
      "l_shipmode";
      "l_shipinstruct";
    ]

let all =
  [ region; nation; supplier; customer; part; partsupp; orders; lineitem ]

let find name = List.find (fun t -> String.equal t.name name) all

let column t name =
  let found = ref (-1) in
  Array.iteri (fun i c -> if String.equal c name then found := i) t.columns;
  if !found < 0 then raise Not_found else !found

module R = struct
  let regionkey = 0
  let name = 1
end

module N = struct
  let nationkey = 0
  let name = 1
  let regionkey = 2
end

module S = struct
  let nationkey = 1
  let acctbal = 2
end

module C = struct
  let custkey = 0
  let nationkey = 1
  let mktsegment = 2
  let acctbal = 3
end

module P = struct
  let partkey = 0
  let brand = 1
  let typ = 2
  let size = 3
  let container = 4
end

module PS = struct
  let partkey = 0
  let suppkey = 1
  let supplycost = 2
  let availqty = 3
end

module O = struct
  let orderkey = 0
  let custkey = 1
  let orderdate = 2
  let shippriority = 3
  let orderpriority = 4
end

module L = struct
  let orderkey = 0
  let partkey = 1
  let suppkey = 2
  let linenumber = 3
  let quantity = 4
  let extendedprice = 5
  let discount = 6
  let returnflag = 8
  let linestatus = 9
  let shipdate = 10
  let commitdate = 11
  let receiptdate = 12
  let shipmode = 13
end

(* Simplified calendar: 12 months of 30 days, 360-day years, 1992..1998. *)
let date y m d = ((y - 1992) * 360) + ((m - 1) * 30) + (d - 1)

let segments =
  [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "HOUSEHOLD"; "MACHINERY" |]

let shipmodes = [| "AIR"; "FOB"; "MAIL"; "RAIL"; "REG AIR"; "SHIP"; "TRUCK" |]

let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

let n_brands = 25

let n_types = 150

let n_containers = 40

let nation_region n =
  [| 0; 1; 1; 1; 4; 0; 3; 3; 2; 2; 4; 4; 2; 4; 0; 0; 0; 1; 2; 3; 4; 2; 3; 3; 1 |].(n)
