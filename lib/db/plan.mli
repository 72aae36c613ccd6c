(** Query execution plans — the tree the Parsing-Optimization kernel would
    hand to the Executor (we hand-write the plans for the TPC-D queries, as
    the paper notes that parse/optimize time is negligible).

    Tuples flowing out of a join are the concatenation (outer @ inner) of
    the input tuples; column indices in expressions and sort keys refer to
    that concatenated layout. *)

type key =
  | Key_const_eq of int  (** Index equality with a constant. *)
  | Key_outer_eq of int
      (** Index equality with a column of the enclosing nest-loop's outer
          tuple (a parameterized index path). *)
  | Key_range of int option * int option
      (** Inclusive range; B-tree indexes only. *)

type agg =
  | Count
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type t =
  | Seq_scan of { table : string; quals : Expr.t list }
  | Index_scan of {
      table : string;
      index : string;  (** Index name, e.g. ["lineitem.l_orderkey"]. *)
      key : key;
      quals : Expr.t list;  (** Residual quals on the fetched tuple. *)
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
    }  (** Both inputs must be sorted ascending on their join column. *)
  | Sort of { child : t; cols : (int * bool) list }
      (** [(column, descending)] sort keys. *)
  | Agg of { child : t; aggs : agg list }
  | Group of { child : t; cols : int list; aggs : agg list }
      (** Input must arrive sorted by [cols]; output rows are the group
          columns followed by the aggregate values. *)
  | Limit of { child : t; limit : int }
  | Material of { child : t }
  | Result of { child : t; exprs : Expr.t list }  (** Final projection. *)

val node_name : t -> string
(** The executor routine implementing the node ("ExecSeqScan", …). *)
