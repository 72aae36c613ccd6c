open Stc_db
module S = Stc_dbdata.Schema

let training_set = [ 3; 4; 5; 6; 9 ]

let test_set = [ 2; 3; 4; 6; 11; 12; 13; 14; 15; 17 ]

let all = List.sort_uniq compare (training_set @ test_set)

let c x = Expr.Col x

let k v = Expr.Const v

let date = S.date

(* revenue = extendedprice * (100 - discount) / 100, in cents *)
let revenue ~ext ~disc =
  Expr.Div (Expr.Mul (c ext, Expr.Sub (k 100, c disc)), k 100)

(* A date-range scan: a B-tree range index scan when the database has one,
   otherwise a sequential scan with the range as a residual qual. *)
let date_scan db ~table ~col_name ~col ~lo ~hi ~quals =
  let index = table ^ "." ^ col_name in
  if Database.has_index db index then
    Plan.Index_scan { table; index; key = Plan.Key_range (lo, hi); quals }
  else
    Plan.Seq_scan { table; quals = Expr.col_between col lo hi :: quals }

let idx_scan table col_name key quals =
  Plan.Index_scan { table; index = table ^ "." ^ col_name; key; quals }

let seq table quals = Plan.Seq_scan { table; quals }

(* ---- the queries of the two sets ---- *)

let q2 _db =
  (* minimum-cost supplier for parts of a given size *)
  let part = seq "part" [ Expr.Eq (c S.P.size, k 15) ] in
  let nl1 =
    Plan.Nest_loop
      {
        outer = part;
        inner = idx_scan "partsupp" "ps_partkey" (Plan.Key_outer_eq S.P.partkey) [];
        quals = [];
      }
  in
  (* part 0-5, partsupp 6-9 *)
  let nl2 =
    Plan.Nest_loop
      {
        outer = nl1;
        inner = idx_scan "supplier" "s_suppkey" (Plan.Key_outer_eq (6 + S.PS.suppkey)) [];
        quals = [];
      }
  in
  (* + supplier 10-12 *)
  Plan.Result
    {
      child =
        Plan.Limit
          {
            child =
              Plan.Sort { child = nl2; cols = [ (6 + S.PS.supplycost, false); (0, false) ] };
            limit = 10;
          };
      exprs = [ c 0; c (6 + S.PS.supplycost); c 10; c 12 ];
    }

let q3 _db =
  let d = date 1995 3 15 in
  let hj1 =
    Plan.Hash_join
      {
        outer = seq "orders" [ Expr.Lt (c S.O.orderdate, k d) ];
        inner = seq "customer" [ Expr.Eq (c S.C.mktsegment, k 1) ];
        outer_col = S.O.custkey;
        inner_col = S.C.custkey;
        quals = [];
      }
  in
  (* orders 0-4, customer 5-8 *)
  let hj2 =
    Plan.Hash_join
      {
        outer = seq "lineitem" [ Expr.Gt (c S.L.shipdate, k d) ];
        inner = hj1;
        outer_col = S.L.orderkey;
        inner_col = 0;
        quals = [];
      }
  in
  (* lineitem 0-14, orders 15-19, customer 20-23 *)
  let grouped =
    Plan.Group
      {
        child = Plan.Sort { child = hj2; cols = [ (0, false) ] };
        cols = [ 0; 15 + S.O.orderdate; 15 + S.O.shippriority ];
        aggs = [ Plan.Sum (revenue ~ext:S.L.extendedprice ~disc:S.L.discount) ];
      }
  in
  Plan.Limit
    {
      child = Plan.Sort { child = grouped; cols = [ (3, true); (0, false) ] };
      limit = 10;
    }

let q4 db =
  let d = date 1993 7 1 in
  let orders =
    date_scan db ~table:"orders" ~col_name:"o_orderdate" ~col:S.O.orderdate
      ~lo:d ~hi:(d + 89) ~quals:[]
  in
  let exists_line =
    Plan.Limit
      {
        child =
          idx_scan "lineitem" "l_orderkey" (Plan.Key_outer_eq S.O.orderkey)
            [ Expr.Lt (c S.L.commitdate, c S.L.receiptdate) ];
        limit = 1;
      }
  in
  let nl = Plan.Nest_loop { outer = orders; inner = exists_line; quals = [] } in
  Plan.Group
    {
      child = Plan.Sort { child = nl; cols = [ (S.O.orderpriority, false) ] };
      cols = [ S.O.orderpriority ];
      aggs = [ Plan.Count ];
    }

let q5 _db =
  let hj_nr =
    Plan.Hash_join
      {
        outer = seq "nation" [];
        inner = seq "region" [ Expr.Eq (c S.R.name, k 2) (* ASIA *) ];
        outer_col = S.N.regionkey;
        inner_col = S.R.regionkey;
        quals = [];
      }
  in
  (* nation 0-2, region 3-4 *)
  let hj_c =
    Plan.Hash_join
      {
        outer = seq "customer" [];
        inner = hj_nr;
        outer_col = S.C.nationkey;
        inner_col = 0;
        quals = [];
      }
  in
  (* customer 0-3, nation 4-6, region 7-8 *)
  let d = date 1994 1 1 in
  let nl_o =
    Plan.Nest_loop
      {
        outer = hj_c;
        inner =
          idx_scan "orders" "o_custkey" (Plan.Key_outer_eq 0)
            [ Expr.col_between S.O.orderdate d (d + 359) ];
        quals = [];
      }
  in
  (* + orders 9-13 *)
  let nl_l =
    Plan.Nest_loop
      {
        outer = nl_o;
        inner = idx_scan "lineitem" "l_orderkey" (Plan.Key_outer_eq 9) [];
        quals = [];
      }
  in
  (* + lineitem 14-28 *)
  let nl_s =
    Plan.Nest_loop
      {
        outer = nl_l;
        inner =
          idx_scan "supplier" "s_suppkey" (Plan.Key_outer_eq (14 + S.L.suppkey)) [];
        quals = [ Expr.Eq (c (29 + S.S.nationkey), c 4) ];
      }
  in
  (* + supplier 29-31 *)
  Plan.Group
    {
      child = Plan.Sort { child = nl_s; cols = [ (5, false) ] };
      cols = [ 5 ] (* n_name *);
      aggs =
        [ Plan.Sum (revenue ~ext:(14 + S.L.extendedprice) ~disc:(14 + S.L.discount)) ];
    }

let q6 db =
  let d = date 1994 1 1 in
  let scan =
    date_scan db ~table:"lineitem" ~col_name:"l_shipdate" ~col:S.L.shipdate
      ~lo:d ~hi:(d + 359)
      ~quals:
        [
          Expr.col_between S.L.discount 5 7;
          Expr.Lt (c S.L.quantity, k 24);
        ]
  in
  Plan.Agg
    {
      child = scan;
      aggs = [ Plan.Sum (Expr.Div (Expr.Mul (c S.L.extendedprice, c S.L.discount), k 100)) ];
    }

let q9 _db =
  let nl_pl =
    Plan.Nest_loop
      {
        outer = seq "part" [ Expr.Lt (c S.P.typ, k 15) ];
        inner = idx_scan "lineitem" "l_partkey" (Plan.Key_outer_eq S.P.partkey) [];
        quals = [];
      }
  in
  (* part 0-5, lineitem 6-20 *)
  let nl_ps =
    Plan.Nest_loop
      {
        outer = nl_pl;
        inner = idx_scan "partsupp" "ps_partkey" (Plan.Key_outer_eq 0) [];
        quals = [ Expr.Eq (c (21 + S.PS.suppkey), c (6 + S.L.suppkey)) ];
      }
  in
  (* + partsupp 21-24 *)
  let nl_s =
    Plan.Nest_loop
      {
        outer = nl_ps;
        inner =
          idx_scan "supplier" "s_suppkey" (Plan.Key_outer_eq (6 + S.L.suppkey)) [];
        quals = [];
      }
  in
  (* + supplier 25-27 *)
  let nl_o =
    Plan.Nest_loop
      {
        outer = nl_s;
        inner =
          idx_scan "orders" "o_orderkey" (Plan.Key_outer_eq (6 + S.L.orderkey)) [];
        quals = [];
      }
  in
  (* + orders 28-32 *)
  let projected =
    Plan.Result
      {
        child = nl_o;
        exprs =
          [
            c (25 + S.S.nationkey);
            Expr.Div (c (28 + S.O.orderdate), k 360);
            Expr.Sub
              ( revenue ~ext:(6 + S.L.extendedprice) ~disc:(6 + S.L.discount),
                Expr.Mul (c (21 + S.PS.supplycost), c (6 + S.L.quantity)) );
          ];
      }
  in
  Plan.Group
    {
      child =
        Plan.Sort { child = projected; cols = [ (0, false); (1, false) ] };
      cols = [ 0; 1 ];
      aggs = [ Plan.Sum (c 2) ];
    }

let q11 _db =
  let hj_sn =
    Plan.Hash_join
      {
        outer = seq "supplier" [];
        inner = seq "nation" [ Expr.Eq (c S.N.name, k 7) (* GERMANY *) ];
        outer_col = S.S.nationkey;
        inner_col = S.N.nationkey;
        quals = [];
      }
  in
  let hj_ps =
    Plan.Hash_join
      {
        outer = seq "partsupp" [];
        inner = hj_sn;
        outer_col = S.PS.suppkey;
        inner_col = 0;
        quals = [];
      }
  in
  (* partsupp 0-3, supplier 4-6, nation 7-9 *)
  let projected =
    Plan.Result
      {
        child = hj_ps;
        exprs = [ c S.PS.partkey; Expr.Mul (c S.PS.supplycost, c S.PS.availqty) ];
      }
  in
  let grouped =
    Plan.Group
      {
        child = Plan.Sort { child = projected; cols = [ (0, false) ] };
        cols = [ 0 ];
        aggs = [ Plan.Sum (c 1) ];
      }
  in
  Plan.Limit
    {
      child = Plan.Sort { child = grouped; cols = [ (1, true); (0, false) ] };
      limit = 20;
    }

let q12 db =
  let d = date 1994 1 1 in
  let scan =
    date_scan db ~table:"lineitem" ~col_name:"l_shipdate" ~col:S.L.shipdate
      ~lo:(d - 120) ~hi:(d + 359)
      ~quals:
        [
          Expr.In_list (c S.L.shipmode, [ 2; 5 ] (* MAIL, SHIP *));
          Expr.col_between S.L.receiptdate d (d + 359);
          Expr.Lt (c S.L.commitdate, c S.L.receiptdate);
          Expr.Lt (c S.L.shipdate, c S.L.commitdate);
        ]
  in
  let nl =
    Plan.Nest_loop
      {
        outer = scan;
        inner = idx_scan "orders" "o_orderkey" (Plan.Key_outer_eq S.L.orderkey) [];
        quals = [];
      }
  in
  (* lineitem 0-14, orders 15-19 *)
  let high =
    Expr.Or
      ( Expr.Eq (c (15 + S.O.orderpriority), k 0),
        Expr.Eq (c (15 + S.O.orderpriority), k 1) )
  in
  let projected =
    Plan.Result
      { child = nl; exprs = [ c S.L.shipmode; high; Expr.Not high ] }
  in
  Plan.Group
    {
      child = Plan.Sort { child = projected; cols = [ (0, false) ] };
      cols = [ 0 ];
      aggs = [ Plan.Sum (c 1); Plan.Sum (c 2) ];
    }

let q13 _db =
  let hj =
    Plan.Hash_join
      {
        outer = seq "orders" [];
        inner = seq "customer" [];
        outer_col = S.O.custkey;
        inner_col = S.C.custkey;
        quals = [];
      }
  in
  let grouped =
    Plan.Group
      {
        child = Plan.Sort { child = hj; cols = [ (S.O.custkey, false) ] };
        cols = [ S.O.custkey ];
        aggs = [ Plan.Count ];
      }
  in
  Plan.Limit
    {
      child = Plan.Sort { child = grouped; cols = [ (1, true); (0, false) ] };
      limit = 30;
    }

let q14 db =
  let d = date 1995 9 1 in
  let scan =
    date_scan db ~table:"lineitem" ~col_name:"l_shipdate" ~col:S.L.shipdate
      ~lo:d ~hi:(d + 29) ~quals:[]
  in
  let nl =
    Plan.Nest_loop
      {
        outer = scan;
        inner = idx_scan "part" "p_partkey" (Plan.Key_outer_eq S.L.partkey) [];
        quals = [];
      }
  in
  (* lineitem 0-14, part 15-20 *)
  let rev = revenue ~ext:S.L.extendedprice ~disc:S.L.discount in
  let projected =
    Plan.Result
      {
        child = nl;
        exprs = [ Expr.Mul (rev, Expr.Lt (c (15 + S.P.typ), k 25)); rev ];
      }
  in
  Plan.Agg { child = projected; aggs = [ Plan.Sum (c 0); Plan.Sum (c 1) ] }

let q15 db =
  let d = date 1996 1 1 in
  let scan =
    date_scan db ~table:"lineitem" ~col_name:"l_shipdate" ~col:S.L.shipdate
      ~lo:d ~hi:(d + 89) ~quals:[]
  in
  let grouped =
    Plan.Group
      {
        child = Plan.Sort { child = scan; cols = [ (S.L.suppkey, false) ] };
        cols = [ S.L.suppkey ];
        aggs = [ Plan.Sum (revenue ~ext:S.L.extendedprice ~disc:S.L.discount) ];
      }
  in
  let top =
    Plan.Limit
      {
        child = Plan.Sort { child = grouped; cols = [ (1, true); (0, false) ] };
        limit = 1;
      }
  in
  let nl =
    Plan.Nest_loop
      {
        outer = top;
        inner = idx_scan "supplier" "s_suppkey" (Plan.Key_outer_eq 0) [];
        quals = [];
      }
  in
  (* [suppkey; rev] 0-1, supplier 2-4 *)
  Plan.Result { child = nl; exprs = [ c 2; c 1 ] }

let q17 _db =
  let part =
    seq "part" [ Expr.Eq (c S.P.brand, k 12); Expr.Eq (c S.P.container, k 7) ]
  in
  let nl =
    Plan.Nest_loop
      {
        outer = part;
        inner =
          idx_scan "lineitem" "l_partkey" (Plan.Key_outer_eq S.P.partkey)
            [ Expr.Lt (c S.L.quantity, k 10) ];
        quals = [];
      }
  in
  let agg =
    Plan.Agg { child = nl; aggs = [ Plan.Sum (c (6 + S.L.extendedprice)) ] }
  in
  Plan.Result { child = agg; exprs = [ Expr.Div (c 0, k 7) ] }

let plan db q =
  match q with
  | 2 -> q2 db
  | 3 -> q3 db
  | 4 -> q4 db
  | 5 -> q5 db
  | 6 -> q6 db
  | 9 -> q9 db
  | 11 -> q11 db
  | 12 -> q12 db
  | 13 -> q13 db
  | 14 -> q14 db
  | 15 -> q15 db
  | 17 -> q17 db
  | _ -> invalid_arg (Printf.sprintf "Queries.plan: no plan for query %d" q)
