type key =
  | Key_const_eq of int
  | Key_outer_eq of int
  | Key_range of int * int

type agg = Count | Sum of Expr.t

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
  | Sort of { child : t; cols : (int * bool) list }
  | Agg of { child : t; aggs : agg list }
  | Group of { child : t; cols : int list; aggs : agg list }
  | Limit of { child : t; limit : int }
  | Result of { child : t; exprs : Expr.t list }
