type key =
  | Key_const_eq of int
  | Key_outer_eq of int
  | Key_range of int option * int option

type agg = Count | Sum of Expr.t | Min of Expr.t | Max of Expr.t | Avg of Expr.t

type t =
  | Seq_scan of { table : string; quals : Expr.t list }
  | Index_scan of {
      table : string;
      index : string;
      key : key;
      quals : Expr.t list;
    }
  | Nest_loop of { outer : t; inner : t; quals : Expr.t list }
  | Hash_join of {
      outer : t;
      inner : t;
      outer_col : int;
      inner_col : int;
      quals : Expr.t list;
    }
  | Merge_join of {
      outer : t;
      inner : t;
      outer_col : int;
      inner_col : int;
      quals : Expr.t list;
    }
  | Sort of { child : t; cols : (int * bool) list }
  | Agg of { child : t; aggs : agg list }
  | Group of { child : t; cols : int list; aggs : agg list }
  | Limit of { child : t; limit : int }
  | Material of { child : t }
  | Result of { child : t; exprs : Expr.t list }

let node_name = function
  | Seq_scan _ -> "ExecSeqScan"
  | Index_scan _ -> "ExecIndexScan"
  | Nest_loop _ -> "ExecNestLoop"
  | Hash_join _ -> "ExecHashJoin"
  | Merge_join _ -> "ExecMergeJoin"
  | Sort _ -> "ExecSort"
  | Agg _ -> "ExecAgg"
  | Group _ -> "ExecGroup"
  | Limit _ -> "ExecLimit"
  | Material _ -> "ExecMaterial"
  | Result _ -> "ExecResult"
