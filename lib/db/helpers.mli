(** Names of the generated utility procedures that engine skeletons call
    (memory allocator, lightweight locks, error machinery, list and string
    primitives — the support code a C database kernel leans on). The
    synthetic-program builder generates a procedure for each name, plus the
    deeper layers of utility code those procedures call in turn. *)

val names : string list
