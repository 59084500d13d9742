let () =
  Alcotest.run "block-parallel"
    [
      ("util", Test_util.suite);
      ("geometry", Test_geometry.suite);
      ("image", Test_image.suite);
      ("pool", Test_pool.suite);
      ("kernel", Test_kernel.suite);
      ("kernels", Test_kernels.suite);
      ("graph", Test_graph.suite);
      ("analysis", Test_analysis.suite);
      ("transform", Test_transform.suite);
      ("sim", Test_sim.suite);
      ("plan", Test_plan.suite);
      ("schedule", Test_schedule.suite);
      ("placement", Test_placement.suite);
      ("lang", Test_lang.suite);
      ("extensions", Test_extensions.suite);
      ("coverage", Test_coverage.suite);
      ("differential", Test_differential.suite);
      ("sweeps", Test_sweeps.suite);
      ("domains", Test_domains.suite);
      ("report", Test_report.suite);
      ("obs", Test_obs.suite);
      ("dispatch", Test_dispatch.suite);
      ("integration", Test_integration.suite);
    ]
