module Schema = Stc_dbdata.Schema
module Datagen = Stc_dbdata.Datagen

type index_kind = Btree_db | Hash_db

type index = Bt of Btree.t | Hx of Hashidx.t

type t = {
  bufmgr : Bufmgr.t;
  heaps : (string, Heap.t) Hashtbl.t;
  indexes : (string, index) Hashtbl.t;
}

(* (table, column) pairs carrying an index; mirrors Section 3: unique
   indexes on primary keys, multi-entry on foreign keys, plus date columns
   on the B-tree variant. *)
let index_specs =
  [
    ("region", "r_regionkey");
    ("nation", "n_nationkey");
    ("supplier", "s_suppkey");
    ("customer", "c_custkey");
    ("part", "p_partkey");
    ("partsupp", "ps_partkey");
    ("orders", "o_orderkey");
    ("orders", "o_custkey");
    ("lineitem", "l_orderkey");
    ("lineitem", "l_partkey");
  ]

let btree_only_specs = [ ("orders", "o_orderdate"); ("lineitem", "l_shipdate") ]

let entries_of_heap heap ~col =
  let file = Heap.file heap in
  let out = ref [] in
  for pno = Storage.n_pages file - 1 downto 0 do
    let page = Storage.page file pno in
    for slot = Page.n_items page - 1 downto 0 do
      out := (Page.get page ~slot ~col, (pno, slot)) :: !out
    done
  done;
  Array.of_list !out

let load ?(frames = 256) data ~kind =
  let storage = Storage.create () in
  let bufmgr = Bufmgr.create ~frames () in
  let heaps = Hashtbl.create 16 in
  List.iter
    (fun tbl ->
      let rows = Datagen.table data tbl.Schema.name in
      let heap =
        Heap.load storage bufmgr ~name:tbl.Schema.name ~rows
          ~width:tbl.Schema.width
      in
      Hashtbl.replace heaps tbl.Schema.name heap)
    Schema.all;
  let indexes = Hashtbl.create 16 in
  let build_index (table, colname) =
    let tbl = Schema.find table in
    let col = Schema.column tbl colname in
    let heap = Hashtbl.find heaps table in
    let entries = entries_of_heap heap ~col in
    let name = table ^ "." ^ colname in
    let idx =
      match kind with
      | Btree_db -> Bt (Btree.build storage bufmgr ~name ~entries)
      | Hash_db -> Hx (Hashidx.build storage bufmgr ~name ~entries)
    in
    Hashtbl.replace indexes name idx
  in
  List.iter build_index index_specs;
  (match kind with
  | Btree_db ->
    (* Range-scannable date indexes only exist on the B-tree variant. *)
    List.iter
      (fun (table, colname) ->
        let tbl = Schema.find table in
        let col = Schema.column tbl colname in
        let heap = Hashtbl.find heaps table in
        let entries = entries_of_heap heap ~col in
        let name = table ^ "." ^ colname in
        Hashtbl.replace indexes name
          (Bt (Btree.build storage bufmgr ~name ~entries)))
      btree_only_specs
  | Hash_db -> ());
  { bufmgr; heaps; indexes }

let bufmgr t = t.bufmgr

let heap t name = Hashtbl.find t.heaps name

let index t name = Hashtbl.find t.indexes name

let has_index t name = Hashtbl.mem t.indexes name
