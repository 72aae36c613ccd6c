module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

let op_names =
  [
    "ExecSeqScan";
    "ExecIndexScan";
    "ExecNestLoop";
    "ExecHashJoin";
    "ExecMergeJoin";
    "ExecSort";
    "ExecAgg";
    "ExecGroup";
    "ExecLimit";
    "ExecMaterial";
    "ExecResult";
  ]

(* ------------------------------------------------------------------ *)
(* Executor node representation                                        *)
(* ------------------------------------------------------------------ *)

type node = { mutable next_fn : unit -> int array option; rescan_fn : int array option -> unit }

let k_procnode = Probe.key "ExecProcNode"

let proc_node node = Probe.routine k_procnode @@ fun () -> node.next_fn ()

(* ------------------------------------------------------------------ *)
(* Index scan glue                                                     *)
(* ------------------------------------------------------------------ *)

type iscan = Bt_scan of Btree.scan | Hx_scan of Hashidx.scan

let iscan_begin idx key =
  match (idx, key) with
  | Database.Bt bt, `Eq k -> Bt_scan (Btree.begin_eq bt k)
  | Database.Bt bt, `Range (lo, hi) -> Bt_scan (Btree.begin_range bt ~lo ~hi)
  | Database.Hx hx, `Eq k -> Hx_scan (Hashidx.begin_eq hx k)
  | Database.Hx _, `Range _ ->
    invalid_arg "Exec: range scan over a hash index"

let iscan_next = function
  | Bt_scan s -> Btree.getnext s
  | Hx_scan s -> Hashidx.getnext s

(* ------------------------------------------------------------------ *)
(* Operator states and next functions                                  *)
(* ------------------------------------------------------------------ *)

let k_seqscan = Probe.key "ExecSeqScan"

let seqscan_next scan quals () =
  Probe.routine k_seqscan @@ fun () ->
  let result = ref None and done_ = ref false in
  while Probe.cond "ss_loop" (!result = None && not !done_) do
    let t = Heap.getnext scan in
    if Probe.cond "ss_got" (t <> None) then begin
      let tu = Option.get t in
      if Probe.cond "ss_pass" (Expr.qual quals tu) then result := Some tu
    end
    else done_ := true
  done;
  !result

let k_indexscan = Probe.key "ExecIndexScan"

type indexscan_state = {
  is_heap : Heap.t;
  is_index : Database.index;
  is_key : Plan.key;
  is_quals : Expr.t list;
  mutable is_scan : iscan option;
  mutable is_param : int array option;
  mutable is_done : bool;
}

let indexscan_start st =
  let key =
    match st.is_key with
    | Plan.Key_const_eq v -> `Eq v
    | Plan.Key_outer_eq c -> (
      match st.is_param with
      | Some outer -> `Eq outer.(c)
      | None -> invalid_arg "Exec: parameterized index scan without a param")
    | Plan.Key_range (lo, hi) -> `Range (lo, hi)
  in
  st.is_scan <- Some (iscan_begin st.is_index key)

let indexscan_next st () =
  Probe.routine k_indexscan @@ fun () ->
  if Probe.cond "is_need_start" (st.is_scan = None && not st.is_done) then
    indexscan_start st;
  let result = ref None and done_ = ref false in
  while Probe.cond "is_loop" (!result = None && not !done_ && not st.is_done) do
    let tid = iscan_next (Option.get st.is_scan) in
    if Probe.cond "is_got" (tid <> None) then begin
      let tu = Heap.fetch st.is_heap (Option.get tid) in
      if Probe.cond "is_pass" (Expr.qual st.is_quals tu) then result := Some tu
    end
    else done_ := true
  done;
  !result

let k_nestloop = Probe.key "ExecNestLoop"

type nestloop_state = {
  nl_outer : node;
  nl_inner : node;
  nl_quals : Expr.t list;
  mutable nl_outer_tuple : int array option;
  mutable nl_done : bool;
}

let nestloop_next st () =
  Probe.routine k_nestloop @@ fun () ->
  let result = ref None in
  while Probe.cond "nl_loop" (!result = None && not st.nl_done) do
    if Probe.cond "nl_need_outer" (st.nl_outer_tuple = None) then begin
      let ot = proc_node st.nl_outer in
      if Probe.cond "nl_outer_got" (ot <> None) then begin
        st.nl_outer_tuple <- ot;
        st.nl_inner.rescan_fn ot
      end
      else st.nl_done <- true
    end
    else begin
      let it = proc_node st.nl_inner in
      if Probe.cond "nl_inner_got" (it <> None) then begin
        let joined = Tuple.concat (Option.get st.nl_outer_tuple) (Option.get it) in
        if Probe.cond "nl_pass" (Expr.qual st.nl_quals joined) then
          result := Some joined
      end
      else st.nl_outer_tuple <- None
    end
  done;
  !result

let k_hashjoin = Probe.key "ExecHashJoin"

type hashjoin_state = {
  hj_outer : node;
  hj_inner : node;
  hj_outer_col : int;
  hj_inner_col : int;
  hj_quals : Expr.t list;
  hj_table : (int, int array) Hashtbl.t;
  mutable hj_built : bool;
  mutable hj_outer_tuple : int array option;
  mutable hj_chain : int array list;
  mutable hj_done : bool;
}

let hashjoin_next st () =
  Probe.routine k_hashjoin @@ fun () ->
  if Probe.cond "hj_need_build" (not st.hj_built) then begin
    let filling = ref true in
    while Probe.cond "hj_build_loop" !filling do
      let t = proc_node st.hj_inner in
      if Probe.cond "hj_build_got" (t <> None) then begin
        let tu = Option.get t in
        Hashtbl.add st.hj_table tu.(st.hj_inner_col) tu
      end
      else filling := false
    done;
    st.hj_built <- true
  end;
  let result = ref None in
  while Probe.cond "hj_probe_loop" (!result = None && not st.hj_done) do
    if Probe.cond "hj_have_chain" (st.hj_chain <> []) then begin
      match st.hj_chain with
      | inner :: rest ->
        st.hj_chain <- rest;
        let joined = Tuple.concat (Option.get st.hj_outer_tuple) inner in
        if Probe.cond "hj_pass" (Expr.qual st.hj_quals joined) then
          result := Some joined
      | [] -> assert false
    end
    else begin
      let ot = proc_node st.hj_outer in
      if Probe.cond "hj_outer_got" (ot <> None) then begin
        let otu = Option.get ot in
        st.hj_outer_tuple <- ot;
        st.hj_chain <- Hashtbl.find_all st.hj_table otu.(st.hj_outer_col)
      end
      else st.hj_done <- true
    end
  done;
  !result

let k_mergejoin = Probe.key "ExecMergeJoin"

type mergejoin_state = {
  mj_outer : node;
  mj_inner : node;
  mj_outer_col : int;
  mj_inner_col : int;
  mj_quals : Expr.t list;
  mutable mj_outer_tuple : int array option;
  mutable mj_lookahead : int array option;
  mutable mj_inner_done : bool;
  mutable mj_inner_started : bool;
  mutable mj_group : int array array;
  mutable mj_group_key : int option;
  mutable mj_group_complete : bool;
  mutable mj_group_pos : int;
  mutable mj_group_acc : int array list; (* reversed accumulation *)
  mutable mj_done : bool;
}

let mergejoin_next st () =
  Probe.routine k_mergejoin @@ fun () ->
  let result = ref None in
  let outer_key () =
    match st.mj_outer_tuple with
    | Some t -> t.(st.mj_outer_col)
    | None -> assert false
  in
  let lookahead_key () =
    match st.mj_lookahead with
    | Some t -> Some t.(st.mj_inner_col)
    | None -> None
  in
  let pull_inner () =
    let t = proc_node st.mj_inner in
    (match t with None -> st.mj_inner_done <- true | Some _ -> ());
    st.mj_lookahead <- t;
    st.mj_inner_started <- true
  in
  while Probe.cond "mj_loop" (!result = None && not st.mj_done) do
    if Probe.cond "mj_need_outer" (st.mj_outer_tuple = None) then begin
      let ot = proc_node st.mj_outer in
      if Probe.cond "mj_outer_got" (ot <> None) then begin
        st.mj_outer_tuple <- ot;
        st.mj_group_pos <- 0
      end
      else st.mj_done <- true
    end
    else if
      Probe.cond "mj_group_ready"
        (st.mj_group_complete && st.mj_group_key = Some (outer_key ()))
    then begin
      if Probe.cond "mj_group_more" (st.mj_group_pos < Array.length st.mj_group)
      then begin
        let joined =
          Tuple.concat
            (Option.get st.mj_outer_tuple)
            st.mj_group.(st.mj_group_pos)
        in
        st.mj_group_pos <- st.mj_group_pos + 1;
        if Probe.cond "mj_pass" (Expr.qual st.mj_quals joined) then
          result := Some joined
      end
      else st.mj_outer_tuple <- None
    end
    else if
      Probe.cond "mj_inner_behind"
        ((not st.mj_inner_started)
        || match lookahead_key () with
           | Some k -> k < outer_key ()
           | None -> false)
    then pull_inner ()
    else if
      Probe.cond "mj_keys_equal" (lookahead_key () = Some (outer_key ()))
    then begin
      (* absorb the lookahead into the (possibly new) inner group *)
      if st.mj_group_key <> Some (outer_key ()) || st.mj_group_complete then begin
        st.mj_group_acc <- [];
        st.mj_group_key <- Some (outer_key ());
        st.mj_group_complete <- false
      end;
      st.mj_group_acc <- Option.get st.mj_lookahead :: st.mj_group_acc;
      pull_inner ();
      if lookahead_key () <> st.mj_group_key then begin
        st.mj_group <- Array.of_list (List.rev st.mj_group_acc);
        st.mj_group_complete <- true;
        st.mj_group_pos <- 0
      end
    end
    else begin
      (* inner side is ahead (or exhausted): this outer tuple matches
         nothing *)
      st.mj_outer_tuple <- None
    end
  done;
  !result

let k_sort = Probe.key "ExecSort"

let k_performsort = Probe.key "tuplesort_performsort"

let k_sortcmp = Probe.key "tuplesort_cmp"

type sort_state = {
  so_child : node;
  so_cols : (int * bool) list;
  mutable so_rows : int array array;
  mutable so_acc : int array list;
  mutable so_filled : bool;
  mutable so_pos : int;
}

let tuplesort_cmp cols a b =
  Probe.routine k_sortcmp @@ fun () ->
  let res = ref 0 in
  let remaining = ref cols in
  while Probe.cond "cmp_col" (!res = 0 && !remaining <> []) do
    match !remaining with
    | (c, desc) :: rest ->
      let d = compare a.(c) b.(c) in
      res := (if desc then -d else d);
      remaining := rest
    | [] -> assert false
  done;
  !res

(* Merge sort with a probe-visible comparison step, so the comparator call
   count is the "sort_step" loop of the tuplesort_performsort skeleton. *)
let performsort st =
  Probe.routine k_performsort @@ fun () ->
  let cmp a b =
    ignore (Probe.cond "sort_step" true);
    tuplesort_cmp st.so_cols a b
  in
  let arr = st.so_rows in
  let n = Array.length arr in
  let tmp = Array.copy arr in
  let rec msort lo hi =
    if hi - lo > 1 then begin
      let mid = (lo + hi) / 2 in
      msort lo mid;
      msort mid hi;
      Array.blit arr lo tmp lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !i < mid && (!j >= hi || cmp tmp.(!i) tmp.(!j) <= 0) then begin
          arr.(k) <- tmp.(!i);
          incr i
        end
        else begin
          arr.(k) <- tmp.(!j);
          incr j
        end
      done
    end
  in
  msort 0 n;
  ignore (Probe.cond "sort_step" false)

let sort_next st () =
  Probe.routine k_sort @@ fun () ->
  if Probe.cond "sort_need_fill" (not st.so_filled) then begin
    let filling = ref true in
    while Probe.cond "sort_fill" !filling do
      let t = proc_node st.so_child in
      if Probe.cond "sort_stored" (t <> None) then
        st.so_acc <- Option.get t :: st.so_acc
      else filling := false
    done;
    st.so_rows <- Array.of_list (List.rev st.so_acc);
    st.so_acc <- [];
    performsort st;
    st.so_filled <- true
  end;
  if Probe.cond "sort_emit" (st.so_pos < Array.length st.so_rows) then begin
    let r = st.so_rows.(st.so_pos) in
    st.so_pos <- st.so_pos + 1;
    Some r
  end
  else None

(* --- aggregation --- *)

type agg_acc = {
  spec : Plan.agg;
  mutable count : int;
  mutable sum : int;
  mutable minv : int;
  mutable maxv : int;
}

let fresh_acc spec = { spec; count = 0; sum = 0; minv = max_int; maxv = min_int }

let agg_expr spec =
  match spec with
  | Plan.Count -> Expr.Const 1
  | Plan.Sum e | Plan.Min e | Plan.Max e | Plan.Avg e -> e

let k_advance = Probe.key "advance_aggregates"

let advance_aggregates accs tuple =
  Probe.routine k_advance @@ fun () ->
  let remaining = ref accs in
  while Probe.cond "agg_adv" (!remaining <> []) do
    match !remaining with
    | acc :: rest ->
      let v = Expr.eval (agg_expr acc.spec) tuple in
      acc.count <- acc.count + 1;
      acc.sum <- acc.sum + v;
      if v < acc.minv then acc.minv <- v;
      if v > acc.maxv then acc.maxv <- v;
      remaining := rest
    | [] -> assert false
  done

let finalize_acc acc =
  match acc.spec with
  | Plan.Count -> acc.count
  | Plan.Sum _ -> acc.sum
  | Plan.Min _ -> if acc.count = 0 then 0 else acc.minv
  | Plan.Max _ -> if acc.count = 0 then 0 else acc.maxv
  | Plan.Avg _ -> if acc.count = 0 then 0 else acc.sum / acc.count

let k_agg = Probe.key "ExecAgg"

type agg_state = {
  ag_child : node;
  ag_specs : Plan.agg list;
  mutable ag_done : bool;
}

let agg_next st () =
  Probe.routine k_agg @@ fun () ->
  if Probe.cond "agg_done" st.ag_done then None
  else begin
    let accs = List.map fresh_acc st.ag_specs in
    let filling = ref true in
    while Probe.cond "agg_fill" !filling do
      let t = proc_node st.ag_child in
      if Probe.cond "agg_got" (t <> None) then
        advance_aggregates accs (Option.get t)
      else filling := false
    done;
    st.ag_done <- true;
    Some (Array.of_list (List.map finalize_acc accs))
  end

let k_group = Probe.key "ExecGroup"

type group_state = {
  gr_child : node;
  gr_cols : int list;
  gr_specs : Plan.agg list;
  mutable gr_lookahead : int array option;
  mutable gr_input_done : bool;
  mutable gr_key : int array option;
  mutable gr_accs : agg_acc list;
  mutable gr_done : bool;
}

let group_key_of st tuple = Array.of_list (List.map (fun c -> tuple.(c)) st.gr_cols)

let group_next st () =
  Probe.routine k_group @@ fun () ->
  let result = ref None in
  while Probe.cond "grp_loop" (!result = None && not st.gr_done) do
    if
      Probe.cond "grp_need_tuple"
        (st.gr_lookahead = None && not st.gr_input_done)
    then begin
      let t = proc_node st.gr_child in
      if Probe.cond "grp_got" (t <> None) then st.gr_lookahead <- t
      else st.gr_input_done <- true
    end
    else if
      Probe.cond "grp_flush"
        (match (st.gr_key, st.gr_lookahead) with
        | Some _, None -> st.gr_input_done
        | Some key, Some la -> group_key_of st la <> key
        | None, _ -> false)
    then begin
      let key = Option.get st.gr_key in
      let aggs = List.map finalize_acc st.gr_accs in
      result := Some (Array.append key (Array.of_list aggs));
      st.gr_key <- None;
      st.gr_accs <- []
    end
    else if Probe.cond "grp_absorb" (st.gr_lookahead <> None) then begin
      let tu = Option.get st.gr_lookahead in
      if st.gr_key = None then begin
        st.gr_key <- Some (group_key_of st tu);
        st.gr_accs <- List.map fresh_acc st.gr_specs
      end;
      advance_aggregates st.gr_accs tu;
      st.gr_lookahead <- None
    end
    else st.gr_done <- true
  done;
  !result

let k_limit = Probe.key "ExecLimit"

type limit_state = { li_child : node; li_limit : int; mutable li_count : int }

let limit_next st () =
  Probe.routine k_limit @@ fun () ->
  if Probe.cond "lim_more" (st.li_count < st.li_limit) then begin
    let t = proc_node st.li_child in
    if Probe.cond "lim_got" (t <> None) then begin
      st.li_count <- st.li_count + 1;
      t
    end
    else begin
      st.li_count <- st.li_limit;
      None
    end
  end
  else None

let k_material = Probe.key "ExecMaterial"

type material_state = {
  ma_child : node;
  mutable ma_buf : int array array;
  mutable ma_n : int;
  mutable ma_input_done : bool;
  mutable ma_pos : int;
}

let material_append st t =
  if st.ma_n = Array.length st.ma_buf then begin
    let buf = Array.make (max 16 (2 * st.ma_n)) [||] in
    Array.blit st.ma_buf 0 buf 0 st.ma_n;
    st.ma_buf <- buf
  end;
  st.ma_buf.(st.ma_n) <- t;
  st.ma_n <- st.ma_n + 1

let material_next st () =
  Probe.routine k_material @@ fun () ->
  let result = ref None and done_ = ref false in
  while Probe.cond "mat_loop" (!result = None && not !done_) do
    if Probe.cond "mat_have_buf" (st.ma_pos < st.ma_n) then begin
      result := Some st.ma_buf.(st.ma_pos);
      st.ma_pos <- st.ma_pos + 1
    end
    else if Probe.cond "mat_can_fill" (not st.ma_input_done) then begin
      let t = proc_node st.ma_child in
      if Probe.cond "mat_got" (t <> None) then material_append st (Option.get t)
      else st.ma_input_done <- true
    end
    else done_ := true
  done;
  !result

let k_result = Probe.key "ExecResult"

let result_next child exprs () =
  Probe.routine k_result @@ fun () ->
  let t = proc_node child in
  if Probe.cond "res_got" (t <> None) then
    Some (Expr.project exprs (Option.get t))
  else None

(* ------------------------------------------------------------------ *)
(* Init (plan -> node tree)                                            *)
(* ------------------------------------------------------------------ *)

let k_initnode = Probe.key "ExecInitNode"

let k_executor_start = Probe.key "ExecutorStart"

let k_executor_run = Probe.key "ExecutorRun"

let dummy_rescan _ = ()

let rec init_node db (plan : Plan.t) : node =
  Probe.routine k_initnode @@ fun () ->
  let children_left = ref (match plan with
    | Plan.Seq_scan _ | Plan.Index_scan _ -> 0
    | Plan.Nest_loop _ | Plan.Hash_join _ | Plan.Merge_join _ -> 2
    | _ -> 1)
  in
  let inited = ref [] in
  let child_plans =
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
  let remaining = ref child_plans in
  while Probe.cond "init_children" (!children_left > 0) do
    match !remaining with
    | p :: rest ->
      inited := init_node db p :: !inited;
      remaining := rest;
      decr children_left
    | [] -> assert false
  done;
  let children = List.rev !inited in
  (* Sequential scans open their heap scan at init time; the probe fires
     for every node so the ExecInitNode walk stays in step. *)
  let pre_scan =
    if
      Probe.cond "init_scan"
        (match plan with Plan.Seq_scan _ -> true | _ -> false)
    then
      match plan with
      | Plan.Seq_scan { table; _ } ->
        Some (Heap.begin_scan (Database.heap db table))
      | _ -> assert false
    else None
  in
  build_node db plan children ~pre_scan

and build_node db plan children ~pre_scan =
  match (plan, children) with
  | Plan.Seq_scan { quals; _ }, [] ->
    let scan = Option.get pre_scan in
    {
      next_fn = seqscan_next scan quals;
      rescan_fn = (fun _ -> Heap.rescan scan);
    }
  | Plan.Index_scan { table; index; key; quals }, [] ->
    let st =
      {
        is_heap = Database.heap db table;
        is_index = Database.index db index;
        is_key = key;
        is_quals = quals;
        is_scan = None;
        is_param = None;
        is_done = false;
      }
    in
    {
      next_fn = indexscan_next st;
      rescan_fn =
        (fun param ->
          st.is_param <- param;
          st.is_scan <- None;
          st.is_done <- false);
    }
  | Plan.Nest_loop { quals; _ }, [ outer; inner ] ->
    let st =
      {
        nl_outer = outer;
        nl_inner = inner;
        nl_quals = quals;
        nl_outer_tuple = None;
        nl_done = false;
      }
    in
    {
      next_fn = nestloop_next st;
      rescan_fn =
        (fun param ->
          st.nl_outer_tuple <- None;
          st.nl_done <- false;
          outer.rescan_fn param);
    }
  | Plan.Hash_join { outer_col; inner_col; quals; _ }, [ outer; inner ] ->
    let st =
      {
        hj_outer = outer;
        hj_inner = inner;
        hj_outer_col = outer_col;
        hj_inner_col = inner_col;
        hj_quals = quals;
        hj_table = Hashtbl.create 1024;
        hj_built = false;
        hj_outer_tuple = None;
        hj_chain = [];
        hj_done = false;
      }
    in
    {
      next_fn = hashjoin_next st;
      rescan_fn =
        (fun param ->
          st.hj_outer_tuple <- None;
          st.hj_chain <- [];
          st.hj_done <- false;
          outer.rescan_fn param);
    }
  | Plan.Merge_join { outer_col; inner_col; quals; _ }, [ outer; inner ] ->
    let st =
      {
        mj_outer = outer;
        mj_inner = inner;
        mj_outer_col = outer_col;
        mj_inner_col = inner_col;
        mj_quals = quals;
        mj_outer_tuple = None;
        mj_lookahead = None;
        mj_inner_done = false;
        mj_inner_started = false;
        mj_group = [||];
        mj_group_key = None;
        mj_group_complete = false;
        mj_group_pos = 0;
        mj_group_acc = [];
        mj_done = false;
      }
    in
    { next_fn = mergejoin_next st; rescan_fn = dummy_rescan }
  | Plan.Sort { cols; _ }, [ child ] ->
    let st =
      {
        so_child = child;
        so_cols = cols;
        so_rows = [||];
        so_acc = [];
        so_filled = false;
        so_pos = 0;
      }
    in
    { next_fn = sort_next st; rescan_fn = (fun _ -> st.so_pos <- 0) }
  | Plan.Agg { aggs; _ }, [ child ] ->
    let st = { ag_child = child; ag_specs = aggs; ag_done = false } in
    {
      next_fn = agg_next st;
      rescan_fn =
        (fun param ->
          st.ag_done <- false;
          child.rescan_fn param);
    }
  | Plan.Group { cols; aggs; _ }, [ child ] ->
    let st =
      {
        gr_child = child;
        gr_cols = cols;
        gr_specs = aggs;
        gr_lookahead = None;
        gr_input_done = false;
        gr_key = None;
        gr_accs = [];
        gr_done = false;
      }
    in
    { next_fn = group_next st; rescan_fn = dummy_rescan }
  | Plan.Limit { limit; _ }, [ child ] ->
    let st = { li_child = child; li_limit = limit; li_count = 0 } in
    {
      next_fn = limit_next st;
      rescan_fn =
        (fun param ->
          st.li_count <- 0;
          child.rescan_fn param);
    }
  | Plan.Material _, [ child ] ->
    let st =
      { ma_child = child; ma_buf = [||]; ma_n = 0; ma_input_done = false; ma_pos = 0 }
    in
    { next_fn = material_next st; rescan_fn = (fun _ -> st.ma_pos <- 0) }
  | Plan.Result { exprs; _ }, [ child ] ->
    { next_fn = result_next child exprs; rescan_fn = child.rescan_fn }
  | _ -> invalid_arg "Exec.build_node: arity mismatch"

let init db plan =
  Probe.routine k_executor_start @@ fun () -> init_node db plan

let run db plan =
  let root = init db plan in
  Probe.routine k_executor_run @@ fun () ->
  let out = ref [] in
  let running = ref true in
  while Probe.cond "run_loop" !running do
    let t = proc_node root in
    if Probe.cond "run_got" (t <> None) then out := Option.get t :: !out
    else running := false
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Skeletons                                                           *)
(* ------------------------------------------------------------------ *)

let e = Stc_cfg.Proc.Executor

let skeletons =
  [
    ( "ExecProcNode",
      e,
      Skeleton.[ straight 2; icall "dispatch" op_names; straight 1 ] );
    ( "ExecSeqScan",
      e,
      Skeleton.
        [
          straight 3;
          while_ "ss_loop"
            [
              call "heap_getnext";
              if_else "ss_got"
                [ call "ExecQual"; if_ "ss_pass" [ straight 2 ] ]
                [ straight 1 ];
            ];
          straight 1;
        ] );
    ( "ExecIndexScan",
      e,
      Skeleton.
        [
          straight 3;
          if_ "is_need_start"
            [ straight 2; icall "am_begin" [ "btbeginscan"; "hash_search" ] ];
          while_ "is_loop"
            [
              icall "am_gettuple" [ "btgettuple"; "hashgettuple" ];
              if_else "is_got"
                [
                  call "heap_fetch";
                  call "ExecQual";
                  if_ "is_pass" [ straight 2 ];
                ]
                [ straight 1 ];
            ];
          straight 1;
        ] );
    ( "ExecNestLoop",
      e,
      Skeleton.
        [
          straight 3;
          while_ "nl_loop"
            [
              if_else "nl_need_outer"
                [
                  call "ExecProcNode";
                  if_else "nl_outer_got" [ straight 3 ] [ straight 1 ];
                ]
                [
                  call "ExecProcNode";
                  if_else "nl_inner_got"
                    [
                      straight 3;
                      helper "palloc";
                      call "ExecQual";
                      if_ "nl_pass" [ straight 2 ];
                    ]
                    [ straight 1 ];
                ];
            ];
          straight 1;
        ] );
    ( "ExecHashJoin",
      e,
      Skeleton.
        [
          straight 3;
          if_ "hj_need_build"
            [
              straight 3;
              helper "palloc";
              while_ "hj_build_loop"
                [
                  call "ExecProcNode";
                  if_else "hj_build_got"
                    [ straight 2; helper "hash_any"; straight 2 ]
                    [ straight 1 ];
                ];
              straight 2;
            ];
          while_ "hj_probe_loop"
            [
              if_else "hj_have_chain"
                [
                  straight 3;
                  helper "palloc";
                  call "ExecQual";
                  if_ "hj_pass" [ straight 2 ];
                ]
                [
                  call "ExecProcNode";
                  if_else "hj_outer_got"
                    [ straight 2; helper "hash_any"; straight 1 ]
                    [ straight 1 ];
                ];
            ];
          straight 1;
        ] );
    ( "ExecMergeJoin",
      e,
      Skeleton.
        [
          straight 4;
          while_ "mj_loop"
            [
              if_else "mj_need_outer"
                [
                  call "ExecProcNode";
                  if_else "mj_outer_got" [ straight 2 ] [ straight 1 ];
                ]
                [
                  if_else "mj_group_ready"
                    [
                      if_else "mj_group_more"
                        [
                          straight 3;
                          helper "palloc";
                          call "ExecQual";
                          if_ "mj_pass" [ straight 2 ];
                        ]
                        [ straight 2 ];
                    ]
                    [
                      if_else "mj_inner_behind"
                        [ call "ExecProcNode"; straight 2 ]
                        [
                          if_else "mj_keys_equal"
                            [
                              straight 4;
                              call "ExecProcNode";
                              straight 3;
                            ]
                            [ straight 2 ];
                        ];
                    ];
                ];
            ];
          straight 1;
        ] );
    ( "tuplesort_cmp",
      e,
      Skeleton.[ straight 2; while_ "cmp_col" [ straight 4 ]; straight 1 ] );
    ( "tuplesort_performsort",
      e,
      Skeleton.
        [
          straight 5;
          helper "palloc";
          while_ "sort_step" [ call "tuplesort_cmp"; straight 2 ];
          straight 2;
        ] );
    ( "ExecSort",
      e,
      Skeleton.
        [
          straight 3;
          if_ "sort_need_fill"
            [
              straight 2;
              helper "palloc";
              while_ "sort_fill"
                [
                  call "ExecProcNode";
                  if_else "sort_stored" [ straight 2 ] [ straight 1 ];
                ];
              straight 2;
              call "tuplesort_performsort";
              straight 1;
            ];
          if_else "sort_emit" [ straight 3 ] [ straight 1 ];
        ] );
    ( "advance_aggregates",
      e,
      Skeleton.
        [
          straight 2;
          while_ "agg_adv" [ call "ExecEvalExpr"; straight 4 ];
          helper "datumCopy";
          straight 1;
        ] );
    ( "ExecAgg",
      e,
      Skeleton.
        [
          straight 2;
          if_else "agg_done" [ straight 1 ]
            [
              straight 3;
              helper "palloc";
              while_ "agg_fill"
                [
                  call "ExecProcNode";
                  if_else "agg_got" [ call "advance_aggregates" ]
                    [ straight 1 ];
                ];
              straight 3;
            ];
          straight 1;
        ] );
    ( "ExecGroup",
      e,
      Skeleton.
        [
          straight 3;
          while_ "grp_loop"
            [
              if_else "grp_need_tuple"
                [
                  call "ExecProcNode";
                  if_else "grp_got" [ straight 1 ] [ straight 1 ];
                ]
                [
                  if_else "grp_flush"
                    [ straight 4; helper "palloc"; straight 2 ]
                    [
                      if_else "grp_absorb"
                        [ straight 3; call "advance_aggregates"; straight 1 ]
                        [ straight 1 ];
                    ];
                ];
            ];
          straight 1;
        ] );
    ( "ExecLimit",
      e,
      Skeleton.
        [
          straight 2;
          if_else "lim_more"
            [
              call "ExecProcNode";
              if_else "lim_got" [ straight 2 ] [ straight 2 ];
            ]
            [ straight 1 ];
          straight 1;
        ] );
    ( "ExecMaterial",
      e,
      Skeleton.
        [
          straight 3;
          while_ "mat_loop"
            [
              if_else "mat_have_buf" [ straight 3 ]
                [
                  if_else "mat_can_fill"
                    [
                      call "ExecProcNode";
                      if_else "mat_got"
                        [ straight 2; helper "list_cons" ]
                        [ straight 1 ];
                    ]
                    [ straight 1 ];
                ];
            ];
          straight 1;
        ] );
    ( "ExecResult",
      e,
      Skeleton.
        [
          straight 2;
          call "ExecProcNode";
          if_else "res_got" [ call "ExecProject"; straight 1 ] [ straight 1 ];
          straight 1;
        ] );
    ( "ExecInitNode",
      e,
      Skeleton.
        [
          straight 6;
          helper "palloc";
          helper "fmgr_info_lookup";
          helper "strncmp_pg";
          helper "oidcmp";
          while_ "init_children" [ call "ExecInitNode"; straight 2 ];
          if_ "init_scan" [ call "heap_beginscan"; straight 1 ];
          straight 4;
          helper "lookup_tupdesc";
          straight 2;
        ] );
    ( "ExecutorStart",
      e,
      Skeleton.
        [
          straight 8;
          helper "palloc";
          helper "MemoryContextSwitchTo";
          helper "errstack_push";
          helper "elog_check";
          straight 4;
          call "ExecInitNode";
          straight 3;
          helper "ResourceOwnerRemember";
        ] );
    ( "ExecutorRun",
      e,
      Skeleton.
        [
          straight 5;
          helper "MemoryContextSwitchTo";
          while_ "run_loop"
            [
              call "ExecProcNode";
              if_else "run_got"
                [ straight 3; helper "list_cons" ]
                [ straight 1 ];
            ];
          straight 3;
          helper "MemoryContextSwitchTo";
        ] );
  ]
