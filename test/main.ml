let () =
  Alcotest.run "dssq"
    [
      ("pmem", Test_pmem.suite);
      ("policy", Test_policy.suite);
      ("wal", Test_wal.suite);
      ("recovery", Test_recovery.suite);
      ("sim", Test_sim.suite);
      ("spec", Test_spec.suite);
      ("lincheck", Test_lincheck.suite);
      ("tagged", Test_tagged.suite);
      ("ebr", Test_ebr.suite);
      ("dss-queue", Test_dss_queue.suite);
      ("dss-queue-crash", Test_dss_queue_crash.suite);
      ("pmwcas", Test_pmwcas.suite);
      ("baselines", Test_baselines.suite);
      ("caswe", Test_caswe.suite);
      ("universal", Test_universal.suite);
      ("workload", Test_workload.suite);
      ("properties", Test_properties.suite);
      ("dss-register", Test_dss_register.suite);
      ("detectable", Test_detectable.suite);
      ("dss-cell", Test_dss_cell.suite);
      ("dss-stack", Test_dss_stack.suite);
      ("nested", Test_nested.suite);
      ("cross-queue", Test_dss_queue_crash.cross_queue_suite);
      ("hashmap", Test_hashmap.suite);
      ("nrl", Test_nrl.suite);
      ("msgpass", Test_msgpass.suite);
      ("litmus", Test_litmus.suite);
      ("explore", Test_explore.suite);
      ("mutants", Test_mutants.suite);
      ("rme", Test_rme.suite);
      ("coverage", Test_coverage.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("attrib", Test_attrib.suite);
    ]
