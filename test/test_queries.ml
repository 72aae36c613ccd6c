module Q = Stc_workload.Queries
module Plan = Stc_db.Plan
module Database = Stc_db.Database

let data = lazy (Stc_dbdata.Datagen.generate ~sf:0.0005 ())

let db_btree = lazy (Database.load (Lazy.force data) ~kind:Database.Btree_db)

let db_hash = lazy (Database.load (Lazy.force data) ~kind:Database.Hash_db)

(* structural helpers *)
let rec nodes plan =
  let children =
    match plan with
    | Plan.Seq_scan _ | Plan.Index_scan _ -> []
    | Plan.Nest_loop { outer; inner; _ } | Plan.Hash_join { outer; inner; _ }
      ->
      [ outer; inner ]
    | Plan.Sort { child; _ }
    | Plan.Agg { child; _ }
    | Plan.Group { child; _ }
    | Plan.Limit { child; _ }
    | Plan.Result { child; _ } ->
      [ child ]
  in
  plan :: List.concat_map nodes children

let count_nodes pred plan = List.length (List.filter pred (nodes plan))

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

(* The constructors a plan node is built from, named by matches without
   a wildcard: a constructor added to [Plan.t], [Plan.agg] or [Plan.key]
   does not compile until it is named here. *)
let constructors (plan : Plan.t) =
  let key : Plan.key -> string = function
    | Key_const_eq _ -> "Key_const_eq"
    | Key_outer_eq _ -> "Key_outer_eq"
    | Key_range _ -> "Key_range"
  in
  let agg : Plan.agg -> string = function
    | Count -> "Count"
    | Sum _ -> "Sum"
  in
  match plan with
  | Seq_scan _ -> [ "Seq_scan" ]
  | Index_scan { key = k; _ } -> [ "Index_scan"; key k ]
  | Nest_loop _ -> [ "Nest_loop" ]
  | Hash_join _ -> [ "Hash_join" ]
  | Sort _ -> [ "Sort" ]
  | Agg { aggs; _ } -> "Agg" :: List.map agg aggs
  | Group { aggs; _ } -> "Group" :: List.map agg aggs
  | Limit _ -> [ "Limit" ]
  | Result _ -> [ "Result" ]

let test_operator_coverage () =
  (* every constructor of the plan language occurs in a plan the system
     runs: a Training or Test set query on either database or an OLTP
     transaction (Key_const_eq occurs only in OLTP, Key_range only on the
     B-tree database) *)
  let plans =
    List.concat_map
      (fun db -> List.map (Q.plan (Lazy.force db)) Q.all)
      [ db_btree; db_hash ]
    @ List.map Stc_workload.Oltp.plan
        [ Order_status 1; Stock_check 1; Customer_summary 1 ]
  in
  let used =
    List.concat_map (fun p -> List.concat_map constructors (nodes p)) plans
  in
  Alcotest.(check (list string))
    "every constructor is used by some plan"
    (List.sort compare
       [
         "Seq_scan"; "Index_scan"; "Nest_loop"; "Hash_join"; "Sort"; "Agg";
         "Group"; "Limit"; "Result"; "Count"; "Sum"; "Key_const_eq";
         "Key_outer_eq"; "Key_range";
       ])
    (List.sort_uniq compare used)

let test_training_and_test_sets () =
  Alcotest.(check (list int)) "training" [ 3; 4; 5; 6; 9 ] Q.training_set;
  Alcotest.(check (list int)) "test" [ 2; 3; 4; 6; 11; 12; 13; 14; 15; 17 ] Q.test_set;
  Alcotest.(check (list int))
    "all is the union of the sets"
    [ 2; 3; 4; 5; 6; 9; 11; 12; 13; 14; 15; 17 ]
    Q.all;
  Alcotest.check_raises "query no set records"
    (Invalid_argument "Queries.plan: no plan for query 1") (fun () ->
      ignore (Q.plan (Lazy.force db_btree) 1))

let test_driver_jobs () =
  let db = Lazy.force db_btree in
  let r =
    Stc_workload.Driver.record
      ~kernel:(Lazy.force Test_workload.kernel)
      ~walker_seed:1L
      ~dbs:[ ("a", db); ("b", db) ]
      ~queries:[ 2; 3; 4 ]
      ()
  in
  Alcotest.(check (list string))
    "one mark per job, databases outermost"
    [ "a/Q2"; "a/Q3"; "a/Q4"; "b/Q2"; "b/Q3"; "b/Q4" ]
    (List.map fst (Stc_trace.Recorder.marks r))

let suite =
  [
    Alcotest.test_case "range scans adapt to db kind" `Quick
      test_range_scans_adapt_to_db;
    Alcotest.test_case "index scans on both dbs" `Quick
      test_equality_index_scans_on_both;
    Alcotest.test_case "operator coverage" `Quick test_operator_coverage;
    Alcotest.test_case "query sets" `Quick test_training_and_test_sets;
    Alcotest.test_case "driver jobs" `Quick test_driver_jobs;
  ]
