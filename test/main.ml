let () =
  Alcotest.run "m3-repro"
    (Test_sim.suites @ Test_mem.suites @ Test_noc.suites @ Test_dtu.suites @ Test_dtu2.suites
   @ Test_hw.suites @ Test_os.suites @ Test_os2.suites @ Test_os3.suites @ Test_fs_image.suites
   @ Test_linux.suites @ Test_trace.suites
   @ Test_harness.suites @ Test_ablations.suites @ Test_obs.suites
   @ Test_fault.suites @ Test_crash.suites @ Test_shard.suites
   @ Test_serve.suites @ Test_dispatch.suites @ Test_sched.suites @ Test_fs_cache.suites
   @ Test_replay.suites @ Test_load.suites @ Test_kv.suites @ Test_golden.suites)
