let () =
  Alcotest.run "stc_repro"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("obs-trace", Test_obs_trace.suite);
      ("par", Test_par.suite);
      ("cfg", Test_cfg.suite);
      ("trace", Test_trace.suite);
      ("profile", Test_profile.suite);
      ("db", Test_db.suite);
      ("dbdata", Test_dbdata.suite);
      ("queries", Test_queries.suite);
      ("workload", Test_workload.suite);
      ("layout", Test_layout.suite);
      ("cachesim", Test_cachesim.suite);
      ("fetch", Test_fetch.suite);
      ("stream", Test_stream.suite);
      ("fused", Test_fused.suite);
      ("core", Test_core.suite);
      ("store", Test_store.suite);
      ("extensions", Test_extensions.suite);
      ("check", Test_check.suite);
      ("prefetch", Test_prefetch.suite);
      ("cli", Test_cli.suite);
    ]
