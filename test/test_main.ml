let () =
  Alcotest.run "abcast"
    [
      Suite_util.suite;
      Suite_wire.suite;
      Suite_sim.suite;
      Suite_store.suite;
      Suite_fd.suite;
      Suite_consensus.suite;
      Suite_consensus_unit.suite;
      Suite_core_units.suite;
      Suite_protocol.suite;
      Suite_dissem.suite;
      Suite_shard.suite;
      Suite_apps.suite;
      Suite_service.suite;
      Suite_quorum.suite;
      Suite_harness.suite;
      Suite_lemmas.suite;
      Suite_baseline.suite;
      Suite_faults.suite;
      Suite_live.suite;
      Suite_obs.suite;
    ]
