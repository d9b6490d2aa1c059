(* Control-plane service tests on a one-shard fleet: end-to-end
   scenario smoke, the lock admission properties the paper's
   multi-tenancy claim rests on (disjoint tenants never wait,
   conflicting work serializes in queue order), a golden drift-event ->
   scoped-reconcile trace, and crash resume with zero
   orphans/duplicates. *)

module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Lock_manager = Cloudless_lock.Lock_manager
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics
module Cloud_rules = Cloudless_schema.Cloud_rules

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* Generous provider budgets so admission behaviour, not token-bucket
   throttling, decides timing (same trick as the E14 bench). *)
let fresh_cloud ?(seed = 42) () =
  Cloud.create
    ~config:(Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~read_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~seed ()

let make_cp ?(trace = Trace.null) ?(config = Shard.fleet_service) ?seed () =
  Fleet.create ~cloud:(fresh_cloud ?seed ()) ~trace ~shards:1 config

(* The single-loop service never bounds admission, so every request is
   accepted outright. *)
let submit cp dep ~src =
  match Fleet.submit_request cp dep ~src with
  | `Accepted rid -> rid
  | `Deferred _ | `Rejected -> Alcotest.fail "unbounded admission refused"

let lock_waits cp =
  List.fold_left
    (fun acc s -> acc + snd (Lock_manager.stats (Shard.lock s)))
    0 (Fleet.shards cp)

(* ------------------------------------------------------------------ *)
(* Scenario smoke                                                      *)
(* ------------------------------------------------------------------ *)

let test_scenario_smoke () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 3;
      resources = 8;
      requests_per_tenant = 2;
      request_interval = 300.;
      drift_events = 4;
      drift_period = 60.;
      policy_period = 120.;
      duration = 1800.;
    }
  in
  let config =
    Scenario.service_config scn Shard.fleet_service
  in
  let cp = ref (make_cp ~config ()) in
  let injections = Scenario.install_fleet scn cp in
  Fleet.run !cp ~until:scn.Scenario.duration;
  let m = Fleet.metrics !cp in
  check int_ "all requests completed" 6 (Metrics.counter m "requests_done");
  check int_ "resources under management" 24
    (Fleet.managed_resource_count !cp);
  check bool_ "all injections fired" true (List.length !injections = 4);
  check bool_ "every injection detected" true
    (List.for_all
       (fun (inj : Scenario.injection) ->
         List.mem_assoc inj.Scenario.icloud_id
           (Fleet.drift_detections !cp))
       !injections);
  check bool_ "reconciles ran" true (Metrics.counter m "reconciles" > 0);
  check bool_ "policy ticked" true (Metrics.counter m "policy_ticks" > 0);
  check bool_ "policy flagged drift" true
    (Metrics.counter m "policy_decisions" > 0);
  check bool_ "no orphans" true (Fleet.orphans !cp = []);
  (* convergence: a fresh request against the final config is a no-op *)
  List.iter
    (fun (d : Shard.deployment) ->
      let instances =
        List.filter
          (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
          (State.resources d.Shard.state)
      in
      List.iter
        (fun (r : State.resource_state) ->
          match Cloud.lookup (Fleet.cloud !cp) r.State.cloud_id with
          | Some live ->
              check bool_ "drift repaired" false
                (live.Cloud.attrs
                 |> Cloudless_hcl.Value.Smap.find_opt "instance_type"
                 = Some (Cloudless_hcl.Value.Vstring "t2.nano"))
          | None -> Alcotest.fail "managed instance missing from cloud")
        instances)
    (Fleet.deployments !cp)

let test_metrics_deterministic () =
  let run () =
    let scn =
      {
        Scenario.default with
        Scenario.tenants = 2;
        requests_per_tenant = 2;
        drift_events = 3;
        duration = 1500.;
      }
    in
    let config =
      Scenario.service_config scn Shard.fleet_service
    in
    let cp = ref (make_cp ~config ()) in
    ignore (Scenario.install_fleet scn cp);
    Fleet.run !cp ~until:scn.Scenario.duration;
    Metrics.to_json (Fleet.metrics !cp)
  in
  check string_ "byte-identical snapshots" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Admission properties                                                *)
(* ------------------------------------------------------------------ *)

(* Disjoint tenants, one request each, submitted simultaneously: under
   Per_resource admission nobody ever waits on a lock. *)
let prop_disjoint_no_wait =
  QCheck.Test.make ~count:15 ~name:"disjoint tenants never wait on a lock"
    QCheck.(pair (int_range 2 6) (int_range 5 10))
    (fun (tenants, resources) ->
      let cp = make_cp () in
      let rids =
        List.init tenants (fun i ->
            let dep =
              Fleet.add_deployment cp
                ~tenant:(Printf.sprintf "t%d" i)
                ~dname:"d0"
                ~src:(Scenario.fleet_src
                        { Scenario.default with Scenario.resources }
                        ~wave:0)
            in
            submit cp dep
              ~src:(Scenario.fleet_src
                      { Scenario.default with Scenario.resources }
                      ~wave:0))
      in
      Fleet.run cp ~until:0.;
      ignore rids;
      lock_waits cp = 0
      && Metrics.counter (Fleet.metrics cp) "requests_done" = tenants)

(* Conflicting work (same deployment) serializes in queue order: the
   completion order of n stacked requests is exactly submission order,
   and each one past the first waited. *)
let prop_conflicting_fifo =
  QCheck.Test.make ~count:15 ~name:"conflicting work serializes in queue order"
    QCheck.(pair (int_range 2 5) (int_range 5 9))
    (fun (n, resources) ->
      let cp = make_cp () in
      let dep =
        Fleet.add_deployment cp ~tenant:"t0" ~dname:"d0"
          ~src:(Scenario.fleet_src
                  { Scenario.default with Scenario.resources }
                  ~wave:0)
      in
      let rids =
        List.init n (fun w ->
            submit cp dep
              ~src:(Scenario.fleet_src
                      { Scenario.default with Scenario.resources }
                      ~wave:w))
      in
      Fleet.run cp ~until:0.;
      let done_order =
        List.map (fun (_, rid, _) -> rid) (Fleet.completed_requests cp)
      in
      done_order = rids && lock_waits cp = n - 1)

(* ------------------------------------------------------------------ *)
(* Golden drift trace                                                  *)
(* ------------------------------------------------------------------ *)

(* One drifted attribute on a 12-resource fleet must produce exactly:
   a request span, then one reconcile span whose impact scope is the
   drifted instance plus its two direct dependencies (subnet + sg, the
   re-evaluation context) — not a full-fleet sweep.  The push
   subscription detects the drift at its injection instant. *)
let test_golden_drift_trace () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let cp = Fleet.create ~cloud ~trace ~shards:1 Shard.fleet_service in
  let scn = { Scenario.default with Scenario.resources = 12 } in
  let dep =
    Fleet.add_deployment cp ~tenant:"acme" ~dname:"prod"
      ~src:(Scenario.fleet_src scn ~wave:0)
  in
  ignore (submit cp dep ~src:(Scenario.fleet_src scn ~wave:0));
  (* drift one instance out-of-band after the apply settles *)
  let injected_at = ref nan in
  Cloud.schedule cloud ~delay:300. (fun () ->
      injected_at := Cloud.now cloud;
      let row =
        List.find
          (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
          (State.resources dep.Shard.state)
      in
      match
        Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:row.State.cloud_id
          ~attr:"instance_type"
          ~value:(Cloudless_hcl.Value.Vstring "t2.nano")
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "oob mutation failed");
  Fleet.run cp ~until:400.;
  let golden =
    List.map
      (fun (s : Trace.span) ->
        let scope =
          try List.assoc "scope" s.Trace.meta with Not_found -> "-"
        in
        Printf.sprintf "%s scope=%s" s.Trace.name scope)
      (spans ())
  in
  check
    Alcotest.(list string)
    "span sequence" [ "request scope=-"; "reconcile scope=3" ] golden;
  (match Fleet.drift_detections cp with
  | [ (_, at) ] ->
      check (Alcotest.float 1e-9) "detection latency" 0. (at -. !injected_at)
  | l -> Alcotest.failf "expected exactly one detection, got %d" (List.length l));
  check int_ "push produced one reconcile" 1
    (Metrics.counter (Fleet.metrics cp) "reconciles")

(* ------------------------------------------------------------------ *)
(* Crash resume                                                        *)
(* ------------------------------------------------------------------ *)

let test_crash_resume () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 3;
      resources = 8;
      requests_per_tenant = 2;
      request_interval = 400.;
      drift_events = 0;
      policy_period = 0.;
      duration = 1200.;
    }
  in
  let config =
    Scenario.service_config scn Shard.fleet_service
  in
  let cp = ref (make_cp ~config ()) in
  ignore (Scenario.install_fleet scn cp);
  Fleet.set_crash !cp (Failure.Crash_after 9);
  (match Fleet.run !cp ~until:scn.Scenario.duration with
  | () -> Alcotest.fail "expected a crash"
  | exception Failure.Engine_crashed _ -> ());
  let fresh, reports = Fleet.resume !cp in
  cp := fresh;
  check int_ "one report per deployment" 3 (List.length reports);
  Fleet.run fresh ~until:scn.Scenario.duration;
  check bool_ "no orphans after resume" true (Fleet.orphans fresh = []);
  check int_ "exact fleet per tenant, no duplicates" 24
    (Fleet.managed_resource_count fresh);
  (* the successor's final convergence request is a no-op plan *)
  List.iter
    (fun (d : Shard.deployment) ->
      check int_ "deployment fully populated" 8 (State.size d.Shard.state))
    (Fleet.deployments fresh)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "controlplane.service",
      [
        Alcotest.test_case "scenario smoke" `Slow test_scenario_smoke;
        Alcotest.test_case "metrics snapshots deterministic" `Slow
          test_metrics_deterministic;
        Alcotest.test_case "golden drift trace" `Quick test_golden_drift_trace;
        Alcotest.test_case "crash mid-service resumes clean" `Slow
          test_crash_resume;
      ] );
    ("controlplane.admission", [ qtest prop_disjoint_no_wait; qtest prop_conflicting_fifo ]);
  ]
