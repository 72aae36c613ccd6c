module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

type t =
  | Col of int
  | Const of int
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | In_list of t * int list

let k_eval = Probe.key "ExecEvalExpr"

let b2i b = if b then 1 else 0

(* The evaluator's probe structure (must match the skeleton):
   is_leaf? -> is_sc (short-circuit and/or)? [lhs; sc_rhs? rhs]
            -> is_binary? [lhs; rhs] -> unary [sub]. *)
let rec eval e tuple =
  Probe.routine k_eval @@ fun () ->
  if Probe.cond "is_leaf" (match e with Col _ | Const _ -> true | _ -> false)
  then
    match e with
    | Col i -> tuple.(i)
    | Const v -> v
    | _ -> assert false
  else if
    Probe.cond "is_sc" (match e with And _ | Or _ -> true | _ -> false)
  then begin
    match e with
    | And (l, r) ->
      let lv = eval l tuple in
      if Probe.cond "sc_rhs" (lv <> 0) then b2i (eval r tuple <> 0) else 0
    | Or (l, r) ->
      let lv = eval l tuple in
      if Probe.cond "sc_rhs" (lv = 0) then b2i (eval r tuple <> 0) else 1
    | _ -> assert false
  end
  else if
    Probe.cond "is_binary"
      (match e with
      | Sub _ | Mul _ | Div _ | Eq _ | Lt _ | Le _ | Gt _ | Ge _ -> true
      | _ -> false)
  then begin
    let l, r =
      match e with
      | Sub (l, r)
      | Mul (l, r)
      | Div (l, r)
      | Eq (l, r)
      | Lt (l, r)
      | Le (l, r)
      | Gt (l, r)
      | Ge (l, r) ->
        (l, r)
      | _ -> assert false
    in
    let lv = eval l tuple in
    let rv = eval r tuple in
    match e with
    | Sub _ -> lv - rv
    | Mul _ -> lv * rv
    | Div _ -> if rv = 0 then 0 else lv / rv
    | Eq _ -> b2i (lv = rv)
    | Lt _ -> b2i (lv < rv)
    | Le _ -> b2i (lv <= rv)
    | Gt _ -> b2i (lv > rv)
    | Ge _ -> b2i (lv >= rv)
    | _ -> assert false
  end
  else begin
    match e with
    | Not s -> b2i (eval s tuple = 0)
    | In_list (s, vs) ->
      let v = eval s tuple in
      b2i (List.mem v vs)
    | _ -> assert false
  end

let eval_bool e tuple = eval e tuple <> 0

let k_qual = Probe.key "ExecQual"

let qual quals tuple =
  Probe.routine k_qual @@ fun () ->
  let remaining = ref quals in
  let ok = ref true in
  while Probe.cond "qual_loop" (!ok && !remaining <> []) do
    match !remaining with
    | q :: rest ->
      ok := eval_bool q tuple;
      remaining := rest
    | [] -> assert false
  done;
  !ok

let k_project = Probe.key "ExecProject"

let project exprs tuple =
  Probe.routine k_project @@ fun () ->
  let out = Array.make (List.length exprs) 0 in
  let i = ref 0 in
  let remaining = ref exprs in
  while Probe.cond "proj_loop" (!remaining <> []) do
    match !remaining with
    | e :: rest ->
      out.(!i) <- eval e tuple;
      incr i;
      remaining := rest
    | [] -> assert false
  done;
  out

let col_between c lo hi = And (Ge (Col c, Const lo), Le (Col c, Const hi))

let skeletons =
  [
    ( "ExecEvalExpr",
      Stc_cfg.Proc.Executor,
      Skeleton.
        [
          straight 3;
          if_else "is_leaf" [ straight 3 ]
            [
              if_else "is_sc"
                [
                  call "ExecEvalExpr";
                  if_ "sc_rhs" [ call "ExecEvalExpr"; straight 1 ];
                  straight 1;
                ]
                [
                  if_else "is_binary"
                    [ call "ExecEvalExpr"; call "ExecEvalExpr"; straight 4 ]
                    [ call "ExecEvalExpr"; straight 3 ];
                ];
            ];
          straight 1;
        ] );
    ( "ExecQual",
      Stc_cfg.Proc.Executor,
      Skeleton.
        [
          straight 3;
          while_ "qual_loop" [ call "ExecEvalExpr"; straight 2 ];
          straight 1;
        ] );
    ( "ExecProject",
      Stc_cfg.Proc.Executor,
      Skeleton.
        [
          straight 4;
          helper "palloc";
          helper "list_nth_cell";
          while_ "proj_loop" [ call "ExecEvalExpr"; straight 2 ];
          straight 1;
        ] );
  ]
