module Q = Stc_workload.Queries
module Plan = Stc_db.Plan
module Database = Stc_db.Database

let data = lazy (Stc_dbdata.Datagen.generate ~sf:0.0005 ())

let db_btree = lazy (Database.load (Lazy.force data) ~kind:Database.Btree_db)

let db_hash = lazy (Database.load (Lazy.force data) ~kind:Database.Hash_db)

(* structural helpers *)
let rec count_nodes pred plan =
  let self = if pred plan then 1 else 0 in
  let children =
    match plan with
    | Plan.Seq_scan _ | Plan.Index_scan _ -> []
    | Plan.Nest_loop { outer; inner; _ }
    | Plan.Hash_join { outer; inner; _ }
    | Plan.Merge_join { outer; inner; _ } ->
      [ outer; inner ]
    | Plan.Sort { child; _ }
    | Plan.Agg { child; _ }
    | Plan.Group { child; _ }
    | Plan.Limit { child; _ }
    | Plan.Material { child; _ }
    | Plan.Result { child; _ } ->
      [ child ]
  in
  List.fold_left (fun acc c -> acc + count_nodes pred c) self children

let is_range_index_scan = function
  | Plan.Index_scan { key = Plan.Key_range _; _ } -> true
  | _ -> false

let is_index_scan = function Plan.Index_scan _ -> true | _ -> false

let test_range_scans_adapt_to_db () =
  (* queries with date ranges use B-tree range index scans on the B-tree
     database and none on the hash database *)
  List.iter
    (fun q ->
      let pb = Q.plan (Lazy.force db_btree) q in
      let ph = Q.plan (Lazy.force db_hash) q in
      Alcotest.(check bool)
        (Printf.sprintf "Q%d uses a range scan on btree" q)
        true
        (count_nodes is_range_index_scan pb > 0);
      Alcotest.(check int)
        (Printf.sprintf "Q%d has no range scan on hash" q)
        0
        (count_nodes is_range_index_scan ph))
    [ 4; 6; 14; 15 ]

let test_equality_index_scans_on_both () =
  (* parameterized nest-loop index paths exist on both databases *)
  List.iter
    (fun q ->
      List.iter
        (fun db ->
          let p = Q.plan (Lazy.force db) q in
          Alcotest.(check bool)
            (Printf.sprintf "Q%d uses index scans" q)
            true
            (count_nodes is_index_scan p > 0))
        [ db_btree; db_hash ])
    [ 2; 5; 9; 17 ]

let test_operator_coverage () =
  (* across the 17 plans, every executor operator appears *)
  let db = Lazy.force db_btree in
  let plans = List.map (Q.plan db) Q.all in
  List.iter
    (fun (name, is_op) ->
      Alcotest.(check bool)
        (name ^ " used by some query")
        true
        (List.exists (fun p -> count_nodes is_op p > 0) plans))
    Plan.
      [
        ("Seq_scan", function Seq_scan _ -> true | _ -> false);
        ("Index_scan", function Index_scan _ -> true | _ -> false);
        ("Nest_loop", function Nest_loop _ -> true | _ -> false);
        ("Hash_join", function Hash_join _ -> true | _ -> false);
        ("Sort", function Sort _ -> true | _ -> false);
        ("Agg", function Agg _ -> true | _ -> false);
        ("Group", function Group _ -> true | _ -> false);
        ("Limit", function Limit _ -> true | _ -> false);
        ("Result", function Result _ -> true | _ -> false);
      ]

let test_mergejoin_and_material_execute () =
  (* not exercised by the 17 TPC-D plans directly; run dedicated plans so
     both operators and their oracle semantics are covered end to end *)
  let db = Lazy.force db_btree in
  let oracle = Stc_workload.Oracle.of_data (Lazy.force data) in
  let mj =
    Plan.Merge_join
      {
        outer = Plan.Sort { child = Plan.Seq_scan { table = "orders"; quals = [] }; cols = [ (Stc_dbdata.Schema.O.custkey, false); (0, false) ] };
        inner = Plan.Sort { child = Plan.Seq_scan { table = "customer"; quals = [] }; cols = [ (0, false) ] };
        outer_col = Stc_dbdata.Schema.O.custkey;
        inner_col = 0;
        quals = [];
      }
  in
  let engine = Stc_db.Exec.run db mj in
  let expected = Stc_workload.Oracle.run oracle mj in
  Alcotest.(check int) "merge join rows" (List.length expected) (List.length engine);
  Alcotest.(check bool) "merge join content" true
    (List.sort compare (List.map Array.to_list engine)
    = List.sort compare (List.map Array.to_list expected));
  let mat =
    Plan.Nest_loop
      {
        outer = Plan.Seq_scan { table = "region"; quals = [] };
        inner =
          Plan.Material { child = Plan.Seq_scan { table = "nation"; quals = [] } };
        quals = [ Stc_db.Expr.Eq (Stc_db.Expr.Col 0, Stc_db.Expr.Col (2 + Stc_dbdata.Schema.N.regionkey)) ];
      }
  in
  let engine = Stc_db.Exec.run db mat in
  let expected = Stc_workload.Oracle.run oracle mat in
  Alcotest.(check int) "material NL rows" (List.length expected)
    (List.length engine);
  Alcotest.(check bool) "material NL content" true
    (List.sort compare (List.map Array.to_list engine)
    = List.sort compare (List.map Array.to_list expected))

let test_training_and_test_sets () =
  Alcotest.(check (list int)) "training" [ 3; 4; 5; 6; 9 ] Q.training_set;
  Alcotest.(check (list int)) "test" [ 2; 3; 4; 6; 11; 12; 13; 14; 15; 17 ] Q.test_set;
  Alcotest.(check int) "17 queries" 17 (List.length Q.all);
  Alcotest.check_raises "bad query"
    (Invalid_argument "Queries.plan: query number must be in 1..17") (fun () ->
      ignore (Q.plan (Lazy.force db_btree) 18))

let test_driver_jobs () =
  let db = Lazy.force db_btree in
  let r =
    Stc_workload.Driver.record
      ~kernel:(Lazy.force Test_workload.kernel)
      ~walker_seed:1L
      ~dbs:[ ("a", db); ("b", db) ]
      ~queries:[ 1; 2; 3 ]
      ()
  in
  Alcotest.(check (list string))
    "one mark per job, databases outermost"
    [ "a/Q1"; "a/Q2"; "a/Q3"; "b/Q1"; "b/Q2"; "b/Q3" ]
    (List.map fst (Stc_trace.Recorder.marks r))

let suite =
  [
    Alcotest.test_case "range scans adapt to db kind" `Quick
      test_range_scans_adapt_to_db;
    Alcotest.test_case "index scans on both dbs" `Quick
      test_equality_index_scans_on_both;
    Alcotest.test_case "operator coverage" `Quick test_operator_coverage;
    Alcotest.test_case "merge join and material vs oracle" `Quick
      test_mergejoin_and_material_execute;
    Alcotest.test_case "query sets" `Quick test_training_and_test_sets;
    Alcotest.test_case "driver jobs" `Quick test_driver_jobs;
  ]
