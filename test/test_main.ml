(* Aggregate test runner: each Test_* module exposes [suites]. *)

let () =
  Alcotest.run "cloudless"
    (Test_hcl.suites @ Test_hcl_eval.suites @ Test_sim.suites @ Test_pqueue.suites
     @ Test_deploy.suites @ Test_graph.suites @ Test_state.suites
     @ Test_schema_validate.suites @ Test_lock_rollback.suites @ Test_drift_debug.suites @ Test_policy.suites @ Test_synth.suites @ Test_lifecycle.suites @ Test_reconciler.suites @ Test_workload_props.suites @ Test_edsl.suites @ Test_edge_cases.suites @ Test_consistency.suites @ Test_errors.suites @ Test_trace.suites @ Test_crash.suites @ Test_controlplane.suites @ Test_fleet.suites @ Test_raw_speed.suites @ Test_resilience.suites @ Test_wave.suites @ Test_scoped_refresh.suites @ Test_stable_ids.suites @ Test_lazy_state.suites)
