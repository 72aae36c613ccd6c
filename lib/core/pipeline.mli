(** The end-to-end experimental setup of the paper, in one value:

    - the synthetic database kernel (program + walkable code);
    - the TPC-D data at a scale factor, loaded into the B-tree-indexed and
      the Hash-indexed databases (Section 3);
    - the {e Training} trace (queries 3, 4, 5, 6, 9 on the B-tree
      database) and the profile built from it (Section 4);
    - the {e Test} trace (queries 2, 3, 4, 6, 11, 12, 13, 14, 15, 17 on
      both databases, run to completion — Section 7). *)

type config = {
  kernel : Stc_synth.Kernel.config;
  sf : float;  (** TPC-D scale factor (the paper used 0.1 ≙ 100 MB). *)
  data_seed : int64;
  walker_seed : int64;
  frames : int;  (** Buffer-pool frames per database. *)
}

val default_config : config
(** Scale factor 0.002 — a multi-million-instruction test trace. *)

val quick_config : config
(** A reduced kernel and scale factor 0.0005, for tests and examples. *)

type t = {
  config : config;
  kernel : Stc_synth.Kernel.t;
  program : Stc_cfg.Program.t;
  db_btree : Stc_db.Database.t;
  db_hash : Stc_db.Database.t;
  training : Stc_trace.Recorder.t;
  test : Stc_trace.Recorder.t;
  profile : Stc_profile.Profile.t;  (** Built from the Training trace. *)
}

val seeded : int -> config -> config
(** [seeded s config] derives every stream seed from the single integer
    [s]: data generation uses [s], the query walker [s + 17], kernel
    construction [s + 34] (distinct offsets so the streams never
    coincide). This is what {!run} applies when [ctx.seed] is set. *)

val run : ?ctx:Run.ctx -> ?config:config -> unit -> t
(** Build everything. With [ctx.metrics], each phase (kernel build, data
    generation, database load, trace recording, profile build) runs inside
    a timing span, and each recording publishes four counters under
    [training.] / [test.], counted from the recorded trace:
    [walker.blocks] and [trace.blocks] (the trace length),
    [walker.instrs] (the recorded blocks' instructions) and
    [trace.marks] (one per query). With [ctx.progress], trace recording reports
    rate on stderr. With [ctx.seed], [config] is first passed through
    {!seeded}. [ctx.jobs] is not read here — the pipeline is inherently
    sequential; pass the same [ctx] on to {!Experiments.simulate}.

    With [ctx.store], the training and test recordings are consulted in
    the artifact store before being re-walked (as chunked entries —
    {!Stc_store.Chunked} — one manifest plus per-segment containers),
    and saved after a fresh recording. The four counters are published
    from the recorder the same way on a store hit, so cold and warm runs
    export identical metrics; kernel
    build, data generation and database loading always run (databases
    are mutable inputs to later stages, and their load cost is small
    next to trace recording). *)

val test_source : ?segment_blocks:int -> t -> Stc_trace.Source.t
(** A fresh segment source over the Test trace (single-shot; mint one
    per replay). [segment_blocks] defaults to
    {!Stc_trace.Source.default_segment_blocks}. *)

val replay_test : t -> (int -> unit) -> unit
(** [Source.iter (test_source t)] — convenience wrapper over the source
    API for block-at-a-time consumers. *)

val replay_training : t -> (int -> unit) -> unit
(** Same over the Training trace. *)
