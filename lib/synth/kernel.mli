(** Assembly of the complete synthetic database kernel: the instrumented
    engine routines (hand-written skeletons from [Stc_db]), the layered
    generated utility helpers they call, parser/optimizer code walked at
    query-setup time, and the cold filler that gives the program its
    paper-scale static footprint (Table 1: ~6.8 K procedures, ~127 K basic
    blocks, ~594 K instructions, of which only ~13 % are ever touched). *)

type config = {
  seed : int64;
  n_l2 : int;  (** Utility helpers called by the named (L1) helpers. *)
  n_l3 : int;
  n_l4 : int;
  n_parser : int;  (** Parser sub-procedures (auto-walked per query). *)
  n_optimizer : int;
  n_filler : int;  (** Never-executed procedures. *)
  filler_instrs : int;  (** Mean instruction budget of a filler body. *)
}

val default_config : config

type t = {
  program : Stc_cfg.Program.t;
  code : Stc_trace.Bytecode.t option array;
      (** Bytecode per procedure id ([None] only for procedures that can
          never be walked — none, in the default assembly). *)
  parser_root : string;
  optimizer_root : string;
}

val build : ?config:config -> unit -> t

val make_walker :
  t -> seed:int64 -> sink:(int -> unit) -> Stc_trace.Walker.t

val query_setup : t -> Stc_trace.Walker.t -> unit
(** Auto-walk the parser and optimizer roots — the (cheap) parse/optimize
    phase preceding each query's execution. *)
