(** Hand-written execution plans for the TPC-D queries of the paper's
    two workloads, the Training set and the Test set (simplified to our
    schema, preserving each query's plan {e shape}: which operators run,
    which indexes are used, join orders).

    Plans adapt to the database variant: range predicates use B-tree index
    scans on the B-tree database and sequential scans with residual quals
    on the Hash database, as Section 3 / Section 7 of the paper implies. *)

val plan : Stc_db.Database.t -> int -> Stc_db.Plan.t
(** [plan db q] for [q] in {!all}. Raises [Invalid_argument] otherwise. *)

val all : int list
(** The sorted union of {!training_set} and {!test_set}:
    [[2; 3; 4; 5; 6; 9; 11; 12; 13; 14; 15; 17]]. *)

val training_set : int list
(** Queries 3, 4, 5, 6, 9 — profiled on the B-tree database only. *)

val test_set : int list
(** Queries 2, 3, 4, 6, 11, 12, 13, 14, 15, 17 — run on both databases. *)
