module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

let leaf_fanout = 228 (* (key, page, slot) triples in a 1024-int page *)

let internal_fanout = 128

type node =
  | Internal of { keys : int array; children : node array; page_no : int }
  | Leaf of {
      keys : int array;
      tids : (int * int) array;
      mutable next_leaf : node option;
      page_no : int;
    }

type t = {
  file : Storage.file;
  bufmgr : Bufmgr.t;
  root : node;
  count : int;
}

let page_no = function
  | Internal { page_no; _ } | Leaf { page_no; _ } -> page_no

let build storage bufmgr ~name ~entries =
  let file = Storage.new_virtual_file storage ~name in
  let entries = Array.copy entries in
  Array.sort
    (fun (k1, t1) (k2, t2) -> if k1 <> k2 then compare k1 k2 else compare t1 t2)
    entries;
  let n = Array.length entries in
  (* leaves *)
  let leaves = ref [] in
  let i = ref 0 in
  while !i < n do
    let len = min leaf_fanout (n - !i) in
    let keys = Array.init len (fun j -> fst entries.(!i + j)) in
    let tids = Array.init len (fun j -> snd entries.(!i + j)) in
    leaves :=
      Leaf
        { keys; tids; next_leaf = None; page_no = Storage.alloc_virtual_page file }
      :: !leaves;
    i := !i + len
  done;
  let leaves = Array.of_list (List.rev !leaves) in
  (if n = 0 then ()
   else
     for j = 0 to Array.length leaves - 2 do
       match leaves.(j) with
       | Leaf l -> l.next_leaf <- Some leaves.(j + 1)
       | Internal _ -> assert false
     done);
  let lowest_key = function
    | Leaf { keys; _ } -> if Array.length keys = 0 then min_int else keys.(0)
    | Internal { keys; _ } -> if Array.length keys = 0 then min_int else keys.(0)
  in
  (* build internal levels until a single root remains *)
  let rec up level =
    if Array.length level <= 1 then
      if Array.length level = 1 then level.(0)
      else
        Leaf
          {
            keys = [||];
            tids = [||];
            next_leaf = None;
            page_no = Storage.alloc_virtual_page file;
          }
    else begin
      let groups = ref [] in
      let i = ref 0 in
      let m = Array.length level in
      while !i < m do
        let len = min internal_fanout (m - !i) in
        let children = Array.sub level !i len in
        let keys = Array.map lowest_key children in
        groups :=
          Internal { keys; children; page_no = Storage.alloc_virtual_page file }
          :: !groups;
        i := !i + len
      done;
      up (Array.of_list (List.rev !groups))
    end
  in
  { file; bufmgr; root = up leaves; count = n }

let n_entries t = t.count

(* --- instrumented search --- *)

let k_binsrch = Probe.key "_bt_binsrch"

(* First index in [keys] with keys.(i) >= key (or > key when [upper]). *)
let binsrch keys key ~upper =
  Probe.routine k_binsrch @@ fun () ->
  let lo = ref 0 and hi = ref (Array.length keys) in
  while Probe.cond "bin_step" (!lo < !hi) do
    let mid = (!lo + !hi) / 2 in
    let above = if upper then keys.(mid) > key else keys.(mid) >= key in
    if above then hi := mid else lo := mid + 1
  done;
  !lo

type scan = {
  tree : t;
  mutable leaf : node option;
  mutable pos : int;
  hi_bound : int option; (* inclusive upper bound *)
  eq_key : int option;
}

let k_search = Probe.key "_bt_search"

(* Descend to the leaf that may contain [key]; returns (leaf, pos) with pos
   = first entry >= key. *)
let search t key =
  Probe.routine k_search @@ fun () ->
  let cur = ref t.root in
  let result = ref None in
  while Probe.cond "descend" (!result = None) do
    Bufmgr.read_buffer t.bufmgr t.file (page_no !cur);
    match !cur with
    | Leaf l ->
      let pos = binsrch l.keys key ~upper:false in
      ignore (Probe.cond "at_leaf" true);
      result := Some (Leaf l, pos)
    | Internal n ->
      (* lower-bound descent: duplicates of [key] may end the previous
         child, so step to the child before the first separator >= key *)
      let idx = binsrch n.keys key ~upper:false in
      ignore (Probe.cond "at_leaf" false);
      cur := n.children.(max 0 (idx - 1))
  done;
  Option.get !result

let k_beginscan = Probe.key "btbeginscan"

let begin_at t key ~hi_bound ~eq_key =
  Probe.routine k_beginscan @@ fun () ->
  let leaf, pos = search t key in
  let s = { tree = t; leaf = Some leaf; pos; hi_bound; eq_key } in
  s

let begin_eq t key = begin_at t key ~hi_bound:None ~eq_key:(Some key)

let begin_range t ~lo ~hi =
  let key = match lo with Some k -> k | None -> min_int in
  begin_at t key ~hi_bound:hi ~eq_key:None

let k_getnext = Probe.key "btgettuple"

let getnext scan =
  Probe.routine k_getnext @@ fun () ->
  let result = ref None in
  let continue_ = ref true in
  while Probe.cond "adv_loop" !continue_ do
    if Probe.cond "have_leaf" (scan.leaf <> None) then begin
      let l, keys, tids, next_leaf =
        match scan.leaf with
        | Some (Leaf l) -> (Leaf l, l.keys, l.tids, l.next_leaf)
        | Some (Internal _) | None -> assert false
      in
      ignore l;
      if Probe.cond "leaf_end" (scan.pos >= Array.length keys) then begin
        if Probe.cond "has_next" (next_leaf <> None) then begin
          let nl = Option.get next_leaf in
          Bufmgr.read_buffer scan.tree.bufmgr scan.tree.file (page_no nl);
          scan.leaf <- Some nl;
          scan.pos <- 0
        end
        else scan.leaf <- None
      end
      else begin
        let key = keys.(scan.pos) in
        let in_range =
          match (scan.eq_key, scan.hi_bound) with
          | Some k, _ -> key = k
          | None, Some hi -> key <= hi
          | None, None -> true
        in
        if Probe.cond "in_range" in_range then begin
          result := Some tids.(scan.pos);
          scan.pos <- scan.pos + 1;
          continue_ := false
        end
        else scan.leaf <- None
      end
    end
    else continue_ := false
  done;
  !result

let skeletons =
  [
    ( "_bt_binsrch",
      Stc_cfg.Proc.Access_methods,
      Skeleton.[ straight 4; while_ "bin_step" [ straight 5 ]; straight 2 ] );
    ( "_bt_search",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 3;
          while_ "descend"
            [
              call "ReadBuffer";
              straight 2;
              call "_bt_binsrch";
              if_else "at_leaf" [ straight 2 ] [ straight 3 ];
            ];
          helper "memcmp_chunk";
          straight 2;
        ] );
    ( "btbeginscan",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 4;
          helper "palloc";
          helper "int4cmp_fmgr";
          call "_bt_search";
          straight 3;
        ] );
    ( "btgettuple",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 3;
          while_ "adv_loop"
            [
              if_else "have_leaf"
                [
                  if_else "leaf_end"
                    [
                      if_else "has_next"
                        [ straight 2; call "ReadBuffer"; straight 2 ]
                        [ straight 2 ];
                    ]
                    [ if_else "in_range" [ straight 5 ] [ straight 2 ] ];
                ]
                [ straight 1 ];
            ];
          straight 2;
        ] );
  ]
