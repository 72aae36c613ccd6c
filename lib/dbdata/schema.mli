(** The TPC-D schema (simplified): the 8 tables with the columns the
    benchmark queries touch. Every attribute is encoded as an [int]:
    dates as days since 1992-01-01, monetary values in cents, categorical
    strings as dictionary codes (the dictionaries are exposed for
    printing). *)

type table = {
  name : string;
  columns : string array;
  width : int;  (** Number of columns. *)
}

val lineitem : table

val all : table list

val find : string -> table
(** Raises [Not_found]. *)

val column : table -> string -> int
(** Index of a column by name. Raises [Not_found]. *)

(** Column-index shorthands, named after the TPC-D attributes. *)

module R : sig
  val regionkey : int
  val name : int
end

module N : sig
  val nationkey : int
  val name : int
  val regionkey : int
end

module S : sig
  val nationkey : int
  val acctbal : int
end

module C : sig
  val custkey : int
  val nationkey : int
  val mktsegment : int
  val acctbal : int
end

module P : sig
  val partkey : int
  val brand : int
  val typ : int
  val size : int
  val container : int
end

module PS : sig
  val partkey : int
  val suppkey : int
  val supplycost : int
  val availqty : int
end

module O : sig
  val orderkey : int
  val custkey : int
  val orderdate : int
  val shippriority : int
  val orderpriority : int
end

module L : sig
  val orderkey : int
  val partkey : int
  val suppkey : int
  val linenumber : int
  val quantity : int
  val extendedprice : int
  val discount : int
  val returnflag : int
  val linestatus : int
  val shipdate : int
  val commitdate : int
  val receiptdate : int
  val shipmode : int
end

(** {2 Value dictionaries and encodings} *)

val date : int -> int -> int -> int
(** [date y m d] → days since 1992-01-01 (a simplified 365-day calendar
    with 30/31-day months is used consistently on both ends). *)

val segments : string array
(** Market segments; [c_mktsegment] indexes into this. *)

val shipmodes : string array

val priorities : string array

val n_brands : int
val n_types : int
val n_containers : int

val nation_region : int -> int
(** Region of a nation code. *)
