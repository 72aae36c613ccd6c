module Kernel = Stc_synth.Kernel
module Database = Stc_db.Database
module Recorder = Stc_trace.Recorder
module Profile = Stc_profile.Profile

type config = {
  kernel : Kernel.config;
  sf : float;
  data_seed : int64;
  walker_seed : int64;
  frames : int;
}

let default_config =
  {
    kernel = Kernel.default_config;
    sf = 0.002;
    data_seed = 0x7C0DL;
    walker_seed = 0xD15EA5EL;
    frames = 256;
  }

let quick_config =
  {
    default_config with
    sf = 0.0005;
    kernel =
      {
        Kernel.default_config with
        Kernel.n_l2 = 60;
        n_l3 = 120;
        n_l4 = 60;
        n_parser = 80;
        n_optimizer = 60;
        n_filler = 400;
      };
  }

type t = {
  config : config;
  kernel : Kernel.t;
  program : Stc_cfg.Program.t;
  db_btree : Database.t;
  db_hash : Database.t;
  training : Recorder.t;
  test : Recorder.t;
  profile : Profile.t;
}

let seeded seed (config : config) =
  {
    config with
    data_seed = Int64.of_int seed;
    walker_seed = Int64.of_int (seed + 17);
    kernel = { config.kernel with Kernel.seed = Int64.of_int (seed + 34) };
  }

(* Hex hash of every field that determines the recorded traces; trace
   keys in the artifact store combine it with the built program's
   [Stc_store.Fp.program]. *)
let config_fingerprint (config : config) =
  let open Stc_util.Fnv in
  let k = config.kernel in
  let h = int64 empty k.Kernel.seed in
  let h = int h k.Kernel.n_l2 in
  let h = int h k.Kernel.n_l3 in
  let h = int h k.Kernel.n_l4 in
  let h = int h k.Kernel.n_parser in
  let h = int h k.Kernel.n_optimizer in
  let h = int h k.Kernel.n_filler in
  let h = int h k.Kernel.filler_instrs in
  let h = float h config.sf in
  let h = int64 h config.data_seed in
  let h = int64 h config.walker_seed in
  let h = int h config.frames in
  let queries h qs = List.fold_left int (int h (List.length qs)) qs in
  let h = queries h Stc_workload.Queries.training_set in
  let h = queries h Stc_workload.Queries.test_set in
  to_hex h

(* The walker and trace statistics of one recording, counted from the
   recorded trace whether it was just walked or loaded from the store:
   the walker emits exactly the ids the recorder stores, so its block
   count is the trace length and its instruction count the sum of the
   recorded blocks' static sizes. *)
let publish_trace_metrics reg ~prefix program recorder =
  let blocks = program.Stc_cfg.Program.blocks in
  let instrs = ref 0 in
  Stc_trace.Source.iter
    (Stc_trace.Source.of_recorder recorder)
    (fun bid -> instrs := !instrs + blocks.(bid).Stc_cfg.Block.size);
  let add name v =
    Stc_obs.Metric.Counter.add (Stc_obs.Registry.counter reg (prefix ^ name)) v
  in
  let n = Recorder.length recorder in
  add "walker.blocks" n;
  add "walker.instrs" !instrs;
  add "trace.blocks" n;
  add "trace.marks" (List.length (Recorder.marks recorder))

let run ?(ctx = Run.default) ?(config = default_config) () =
  let config =
    match ctx.Run.seed with Some s -> seeded s config | None -> config
  in
  let metrics = ctx.Run.metrics in
  let span name f = Run.span ctx name f in
  let reporter label = Run.reporter ctx ~label () in
  let store = Stc_store.of_ctx ctx in
  let kernel = span "kernel-build" (fun () -> Kernel.build ~config:config.kernel ()) in
  let data =
    span "datagen" (fun () ->
        Stc_dbdata.Datagen.generate ~seed:config.data_seed ~sf:config.sf ())
  in
  let db_btree =
    span "db-load" (fun () ->
        Database.load ~frames:config.frames data ~kind:Database.Btree_db)
  in
  let db_hash =
    span "db-load" (fun () ->
        Database.load ~frames:config.frames data ~kind:Database.Hash_db)
  in
  (* Trace keys cover the full config fingerprint plus the built
     program's structure, so a kernel-generator change invalidates
     recorded traces even when the config did not move. *)
  let cfg_fp = config_fingerprint config in
  let prog_fp = Stc_store.Fp.program kernel.Kernel.program in
  let record which ~prefix ~walker_seed ~dbs ~queries =
    span ("record-" ^ which) (fun () ->
        let fresh () =
          Stc_workload.Driver.record
            ?progress:(reporter ("record-" ^ which))
            ~kernel ~walker_seed ~dbs ~queries ()
        in
        let recorder =
          match store with
          | None -> fresh ()
          | Some st -> (
              let key =
                Stc_store.Key.of_parts
                  [ "pipeline-trace"; cfg_fp; prog_fp; which ]
              in
              match Stc_store.Chunked.load st ~key with
              | Some recorder -> recorder
              | None ->
                  let recorder = fresh () in
                  Stc_store.Chunked.save st ~key recorder;
                  recorder)
        in
        (match metrics with
        | Some reg ->
            publish_trace_metrics reg ~prefix kernel.Kernel.program recorder
        | None -> ());
        recorder)
  in
  let training =
    record "training" ~prefix:"training." ~walker_seed:config.walker_seed
      ~dbs:[ ("btree", db_btree) ]
      ~queries:Stc_workload.Queries.training_set
  in
  let test =
    record "test" ~prefix:"test."
      ~walker_seed:(Int64.add config.walker_seed 1L)
      ~dbs:[ ("btree", db_btree); ("hash", db_hash) ]
      ~queries:Stc_workload.Queries.test_set
  in
  let profile = Profile.create kernel.Kernel.program in
  span "build-profile" (fun () ->
      Stc_trace.Source.iter
        (Stc_trace.Source.of_recorder training)
        (Profile.sink profile));
  (match metrics with
  | Some reg ->
    let module Reg = Stc_obs.Registry in
    Stc_obs.Metric.Gauge.set (Reg.gauge reg "pipeline.sf") config.sf;
    Stc_obs.Metric.Gauge.set
      (Reg.gauge reg "pipeline.frames")
      (float_of_int config.frames);
    let sc = Stc_cfg.Program.static_counts kernel.Kernel.program in
    Stc_obs.Metric.Gauge.set
      (Reg.gauge reg "pipeline.static_blocks")
      (float_of_int sc.Stc_cfg.Program.n_blocks)
  | None -> ());
  {
    config;
    kernel;
    program = kernel.Kernel.program;
    db_btree;
    db_hash;
    training;
    test;
    profile;
  }

let test_source ?segment_blocks t =
  Stc_trace.Source.of_recorder ?segment_blocks t.test

let replay_test t f = Stc_trace.Source.iter (test_source t) f

let replay_training t f =
  Stc_trace.Source.iter (Stc_trace.Source.of_recorder t.training) f
