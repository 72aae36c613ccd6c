module S = Stc_dbdata.Schema
module Plan = Stc_db.Plan
module Expr = Stc_db.Expr

type t = { tables : (string * int array array) list }

let of_data data =
  { tables = List.map (fun tb -> (tb.S.name, Stc_dbdata.Datagen.table data tb.S.name)) S.all }

let table t name = List.assoc name t.tables

let b2i b = if b then 1 else 0

(* Pure expression evaluation, mirroring Stc_db.Expr.eval semantics. *)
let rec eval e (tu : int array) =
  match e with
  | Expr.Col i -> tu.(i)
  | Expr.Const v -> v
  | Expr.Sub (l, r) -> eval l tu - eval r tu
  | Expr.Mul (l, r) -> eval l tu * eval r tu
  | Expr.Div (l, r) ->
    let rv = eval r tu in
    if rv = 0 then 0 else eval l tu / rv
  | Expr.Eq (l, r) -> b2i (eval l tu = eval r tu)
  | Expr.Lt (l, r) -> b2i (eval l tu < eval r tu)
  | Expr.Le (l, r) -> b2i (eval l tu <= eval r tu)
  | Expr.Gt (l, r) -> b2i (eval l tu > eval r tu)
  | Expr.Ge (l, r) -> b2i (eval l tu >= eval r tu)
  | Expr.And (l, r) -> b2i (eval l tu <> 0 && eval r tu <> 0)
  | Expr.Or (l, r) -> b2i (eval l tu <> 0 || eval r tu <> 0)
  | Expr.Not s -> b2i (eval s tu = 0)
  | Expr.In_list (s, vs) -> b2i (List.mem (eval s tu) vs)

let quals_pass quals tu = List.for_all (fun q -> eval q tu <> 0) quals

let index_column index =
  match String.index_opt index '.' with
  | Some i ->
    let tbl = String.sub index 0 i in
    let col = String.sub index (i + 1) (String.length index - i - 1) in
    (tbl, S.column (S.find tbl) col)
  | None -> invalid_arg "Oracle: bad index name"

let concat = Stc_db.Tuple.concat

let agg_expr = function
  | Plan.Count -> Expr.Const 1
  | Plan.Sum e -> e

let finalize spec values =
  match spec with
  | Plan.Count -> List.length values
  | Plan.Sum _ -> List.fold_left ( + ) 0 values

(* Stable group-by over an already-sorted stream. *)
let group_sorted cols aggs rows =
  let key tu = List.map (fun c -> tu.(c)) cols in
  let rec go acc current = function
    | [] -> (
      match current with
      | None -> List.rev acc
      | Some (k, members) -> List.rev ((k, List.rev members) :: acc))
    | tu :: rest -> (
      match current with
      | Some (k, members) when key tu = k -> go acc (Some (k, tu :: members)) rest
      | Some (k, members) -> go ((k, List.rev members) :: acc) (Some (key tu, [ tu ])) rest
      | None -> go acc (Some (key tu, [ tu ])) rest)
  in
  let groups = go [] None rows in
  List.map
    (fun (k, members) ->
      let aggvals =
        List.map
          (fun spec -> finalize spec (List.map (eval (agg_expr spec)) members))
          aggs
      in
      Array.of_list (k @ aggvals))
    groups

let rec run_plan t param (plan : Plan.t) : int array list =
  match plan with
  | Plan.Seq_scan { table = name; quals } ->
    Array.to_list (table t name) |> List.filter (quals_pass quals)
  | Plan.Index_scan { table = name; index; key; quals } ->
    let _, col = index_column index in
    let rows = Array.to_list (table t name) in
    let rows =
      match key with
      | Plan.Key_const_eq v -> List.filter (fun tu -> tu.(col) = v) rows
      | Plan.Key_outer_eq oc -> (
        match param with
        | Some outer -> List.filter (fun tu -> tu.(col) = outer.(oc)) rows
        | None -> invalid_arg "Oracle: parameterized scan without param")
      | Plan.Key_range (lo, hi) ->
        (* a B-tree range scan returns key order (ties in heap order) *)
        List.stable_sort
          (fun a b -> compare a.(col) b.(col))
          (List.filter (fun tu -> tu.(col) >= lo && tu.(col) <= hi) rows)
    in
    List.filter (quals_pass quals) rows
  | Plan.Nest_loop { outer; inner; quals } ->
    let outers = run_plan t param outer in
    List.concat_map
      (fun ot ->
        run_plan t (Some ot) inner
        |> List.map (concat ot)
        |> List.filter (quals_pass quals))
      outers
  | Plan.Hash_join { outer; inner; outer_col; inner_col; quals } ->
    let inners = run_plan t param inner in
    let outers = run_plan t param outer in
    List.concat_map
      (fun ot ->
        (* Hashtbl.find_all returns most-recently-added first, i.e. the
           reverse of the build order. *)
        List.rev
          (List.filter (fun it -> it.(inner_col) = ot.(outer_col)) inners)
        |> List.map (concat ot)
        |> List.filter (quals_pass quals))
      outers
  | Plan.Sort { child; cols } ->
    let rows = run_plan t param child in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (c, desc) :: rest ->
          let d = compare a.(c) b.(c) in
          let d = if desc then -d else d in
          if d <> 0 then d else go rest
      in
      go cols
    in
    List.stable_sort cmp rows
  | Plan.Agg { child; aggs } ->
    let rows = run_plan t param child in
    [
      Array.of_list
        (List.map
           (fun spec -> finalize spec (List.map (eval (agg_expr spec)) rows))
           aggs);
    ]
  | Plan.Group { child; cols; aggs } ->
    group_sorted cols aggs (run_plan t param child)
  | Plan.Limit { child; limit } ->
    let rows = run_plan t param child in
    List.filteri (fun i _ -> i < limit) rows
  | Plan.Result { child; exprs } ->
    run_plan t param child
    |> List.map (fun tu -> Array.of_list (List.map (fun e -> eval e tu) exprs))

let run t plan = run_plan t None plan
