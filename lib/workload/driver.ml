module Kernel = Stc_synth.Kernel
module Probe = Stc_trace.Probe
module Recorder = Stc_trace.Recorder

type job = { db_label : string; db : Stc_db.Database.t; query : int }

let jobs ~dbs ~queries =
  List.concat_map
    (fun (db_label, db) ->
      List.map (fun query -> { db_label; db; query }) queries)
    dbs

let job_name j = Printf.sprintf "%s/Q%d" j.db_label j.query

let record ?progress ~kernel ~walker_seed ~dbs ~queries () =
  (* start from a cold, reproducible buffer pool *)
  List.iter (fun (_, db) -> Stc_db.Bufmgr.reset (Stc_db.Database.bufmgr db)) dbs;
  let recorder = Recorder.create () in
  let sink =
    match progress with
    | None -> Recorder.sink recorder
    | Some p ->
      fun bid ->
        Recorder.sink recorder bid;
        Stc_obs.Progress.step p
  in
  let walker = Kernel.make_walker kernel ~seed:walker_seed ~sink in
  (Probe.with_walker walker @@ fun () ->
   List.iter
     (fun job ->
       Recorder.mark recorder (job_name job);
       Kernel.query_setup kernel walker;
       let plan = Queries.plan job.db job.query in
       ignore (Stc_db.Exec.run job.db plan))
     (jobs ~dbs ~queries));
  (match progress with Some p -> Stc_obs.Progress.finish p | None -> ());
  recorder
