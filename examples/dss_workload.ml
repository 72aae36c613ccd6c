(* Run decision-support queries through the instrumented engine and print
   the Section 4 characterization: footprint, popularity, reuse,
   determinism — plus per-query result summaries and buffer-pool stats.

   Run with:  dune exec examples/dss_workload.exe [-- SF] *)

module E = Stc_core.Experiments
module Pipeline = Stc_core.Pipeline
module Database = Stc_db.Database
module Queries = Stc_workload.Queries

let () =
  let sf = try float_of_string Sys.argv.(1) with _ -> 0.001 in
  let config = { Pipeline.quick_config with Pipeline.sf } in

  (* Execute every Training and Test set query untraced on the B-tree
     database and show the result sizes, as a user of the engine library
     would. *)
  let data = Stc_dbdata.Datagen.generate ~sf () in
  let db = Database.load data ~kind:Database.Btree_db in
  Printf.printf "Query results on the B-tree database (sf=%.4g):\n" sf;
  List.iter
    (fun q ->
      let t0 = Unix.gettimeofday () in
      let rows = Stc_db.Exec.run db (Queries.plan db q) in
      Printf.printf "  Q%-2d -> %5d rows   (%.0f ms)\n" q (List.length rows)
        (1000.0 *. (Unix.gettimeofday () -. t0)))
    Queries.all;
  let bm = Database.bufmgr db in
  Printf.printf "Buffer manager: %d hits, %d misses (%.1f%% hit rate)\n\n"
    (Stc_db.Bufmgr.hits bm) (Stc_db.Bufmgr.misses bm)
    (100.0
    *. float_of_int (Stc_db.Bufmgr.hits bm)
    /. float_of_int (max 1 (Stc_db.Bufmgr.hits bm + Stc_db.Bufmgr.misses bm)));

  (* The paper's characterization over the Training trace. *)
  let pl = Pipeline.run ~config () in
  E.print_table1 (E.table1 pl);
  print_newline ();
  E.print_figure2 pl;
  print_newline ();
  E.print_reuse (E.reuse pl);
  print_newline ();
  E.print_table2 (E.table2 pl)
