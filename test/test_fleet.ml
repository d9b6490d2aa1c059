(* Multi-shard fleet tests (E15): consistent-hash routing properties
   (ring stability under growth, single ownership), push-based drift
   with cross-shard routing and a golden trace, shard-granularity crash
   resume with digest equality against an uncrashed run, admission
   backpressure, and the labeled metrics scopes the per-shard
   observability rides on. *)

module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Router = Cloudless_controlplane.Router
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics
module Cloud_rules = Cloudless_schema.Cloud_rules

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let fresh_cloud ?(seed = 42) () =
  Cloud.create
    ~config:(Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~read_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~seed ()

let tenant_names n = List.init n (Printf.sprintf "tenant%d")

(* ------------------------------------------------------------------ *)
(* Router properties                                                   *)
(* ------------------------------------------------------------------ *)

(* Growing the ring from n to n+1 shards must remap only ~1/(n+1) of
   tenants.  2.5x the ideal fraction is a generous, non-flaky bound for
   64 vnodes/shard; the hash is deterministic, so a pass is stable. *)
let prop_ring_stability =
  QCheck.Test.make ~count:20 ~name:"adding a shard moves <= ~1/N tenants"
    QCheck.(pair (int_range 2 8) (int_range 100 300))
    (fun (shards, tenants) ->
      let before = Router.create ~shards () in
      let after = Router.create ~shards:(shards + 1) () in
      let moved =
        List.length
          (List.filter
             (fun t -> Router.ring_assign before t <> Router.ring_assign after t)
             (tenant_names tenants))
      in
      float_of_int moved
      <= 2.5 *. float_of_int tenants /. float_of_int (shards + 1))

(* Assignment is a total function onto [0, shards): every tenant has
   exactly one owner, and pins never escape the range. *)
let prop_single_owner =
  QCheck.Test.make ~count:30 ~name:"every tenant owned by exactly one shard"
    QCheck.(pair (int_range 1 9) (int_range 1 50))
    (fun (shards, tenants) ->
      let r = Router.create ~shards () in
      List.for_all
        (fun t ->
          let s = Router.assign r t in
          s >= 0 && s < shards && Router.assign r t = s)
        (tenant_names tenants))

(* A registered deployment lives in exactly one shard's list. *)
let test_fleet_single_registration () =
  let fleet =
    Fleet.create ~cloud:(fresh_cloud ()) ~shards:4 Shard.fleet_service
  in
  List.iter
    (fun t ->
      ignore
        (Fleet.add_deployment fleet ~tenant:t ~dname:"d0"
           ~src:(Scenario.fleet_src Scenario.default ~wave:0)))
    (tenant_names 12);
  List.iter
    (fun t ->
      let owners =
        List.filter
          (fun s -> Shard.find_deployment s ~tenant:t ~dname:"d0" <> None)
          (Fleet.shards fleet)
      in
      check int_ (t ^ " registered on exactly one shard") 1
        (List.length owners))
    (tenant_names 12)

let test_partition_covers_all_shards () =
  (* cloud ids hash over a different domain than tenants; with a few
     dozen ids every shard should classify something *)
  let r = Router.create ~shards:4 () in
  let hit = Array.make 4 false in
  List.iter
    (fun i -> hit.(Router.partition r (Printf.sprintf "instance-%06x" i)) <- true)
    (List.init 64 Fun.id);
  check bool_ "all partitions used" true (Array.for_all Fun.id hit)

(* ------------------------------------------------------------------ *)
(* Golden cross-shard drift trace                                      *)
(* ------------------------------------------------------------------ *)

(* One tenant on a two-shard fleet in [Subscribe] mode.  An OOB
   mutation at t=300 must produce: the apply's request span, then a
   scoped reconcile span — and the detection must be *instant* (the
   subscription classifies the entry inside the very append), with the
   activity log never polled. *)
let test_golden_subscribe_trace () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let fleet = Fleet.create ~cloud ~trace ~shards:2 Shard.fleet_service in
  let scn = { Scenario.default with Scenario.resources = 12 } in
  let dep =
    Fleet.add_deployment fleet ~tenant:"acme" ~dname:"prod"
      ~src:(Scenario.fleet_src scn ~wave:0)
  in
  ignore
    (Fleet.submit_request fleet dep ~src:(Scenario.fleet_src scn ~wave:0));
  let drifted = ref "" in
  Cloud.schedule cloud ~delay:300. (fun () ->
      let row =
        List.find
          (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
          (State.resources dep.Shard.state)
      in
      drifted := row.State.cloud_id;
      match
        Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:row.State.cloud_id
          ~attr:"instance_type"
          ~value:(Cloudless_hcl.Value.Vstring "t2.nano")
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "oob mutation failed");
  Fleet.run fleet ~until:400.;
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
  (match Fleet.drift_detections fleet with
  | [ (cid, at) ] ->
      check Alcotest.string "drifted resource detected" !drifted cid;
      check (Alcotest.float 1e-9) "detection is instant (push, not poll)" 300.
        at
  | l -> Alcotest.failf "expected one detection, got %d" (List.length l));
  let m = Fleet.metrics fleet in
  let owner = Router.assign (Fleet.router fleet) "acme" in
  let classifier = Router.partition (Fleet.router fleet) !drifted in
  check int_ "cross-shard hop counted iff classifier is not the owner"
    (if owner <> classifier then 1 else 0)
    (Metrics.counter m "cross_shard_routed")

(* A multi-tenant scenario routinely crosses shards, and the converged
   digest is identical at any shard count. *)
let test_cross_shard_routing_and_digest () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 8;
      resources = 8;
      requests_per_tenant = 2;
      request_interval = 300.;
      drift_events = 8;
      drift_period = 60.;
      policy_period = 0.;
      duration = 1800.;
    }
  in
  let run shards =
    let config = Scenario.service_config { scn with Scenario.shards } Shard.fleet_service in
    let fleet = ref (Fleet.create ~cloud:(fresh_cloud ()) ~shards config) in
    let injections = Scenario.install_fleet scn fleet in
    Fleet.run !fleet ~until:scn.Scenario.duration;
    check int_ "all injections fired" 8 (List.length !injections);
    check int_ "every injection detected" 8
      (List.length (Fleet.drift_detections !fleet));
    (!fleet, Metrics.counter (Fleet.metrics !fleet) "cross_shard_routed")
  in
  let f2, crossed2 = run 2 in
  let f3, _ = run 3 in
  check bool_ "some drift crossed shards" true (crossed2 > 0);
  check Alcotest.string "digest invariant under shard count"
    (Fleet.state_digest f2) (Fleet.state_digest f3)

(* ------------------------------------------------------------------ *)
(* Crash resume at shard granularity                                   *)
(* ------------------------------------------------------------------ *)

let test_fleet_crash_resume () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 6;
      shards = 2;
      resources = 8;
      requests_per_tenant = 1;
      drift_events = 0;
      policy_period = 0.;
      duration = 1200.;
    }
  in
  let config = Scenario.service_config scn Shard.fleet_service in
  let run ?crash () =
    let fleet = ref (Fleet.create ~cloud:(fresh_cloud ()) ~shards:2 config) in
    ignore (Scenario.install_fleet scn fleet);
    (match crash with
    | Some k -> Fleet.set_crash !fleet (Failure.Crash_after k)
    | None -> ());
    let crashed =
      match Fleet.run !fleet ~until:scn.Scenario.duration with
      | () -> false
      | exception Failure.Engine_crashed _ -> true
    in
    (fleet, crashed)
  in
  let ref_fleet, ref_crashed = run () in
  check bool_ "reference run stayed up" false ref_crashed;
  let fleet_ref, crashed = run ~crash:10 () in
  check bool_ "crash gate tripped" true crashed;
  let fresh, reports = Fleet.resume !fleet_ref in
  fleet_ref := fresh;
  check int_ "one recovery report per deployment" 6 (List.length reports);
  check int_ "successor keeps the shard count" 2 (Fleet.shard_count fresh);
  Fleet.run fresh ~until:scn.Scenario.duration;
  check bool_ "no orphans" true (Fleet.orphans fresh = []);
  check int_ "exact fleet, no duplicates" 48
    (Fleet.managed_resource_count fresh);
  check Alcotest.string "digest equals the uncrashed run"
    (Fleet.state_digest !ref_fleet) (Fleet.state_digest fresh)

(* ------------------------------------------------------------------ *)
(* Admission backpressure                                              *)
(* ------------------------------------------------------------------ *)

let burst_fleet admission =
  let config =
    { Shard.fleet_service with Shard.max_queue_depth = 1; admission }
  in
  let fleet = Fleet.create ~cloud:(fresh_cloud ()) ~shards:1 config in
  let dep =
    Fleet.add_deployment fleet ~tenant:"hot" ~dname:"d0"
      ~src:(Scenario.fleet_src Scenario.default ~wave:0)
  in
  (fleet, dep)

(* Queue depth counts queued + lock-blocked work, not the in-flight
   holder: request 1 executes immediately, request 2 becomes the lock
   waiter that fills the depth-1 bound, requests 3-4 are over it. *)
let test_backpressure_defer () =
  let fleet, dep = burst_fleet Shard.Defer in
  let src = Scenario.fleet_src Scenario.default ~wave:0 in
  let outcomes = List.init 4 (fun _ -> Fleet.submit_request fleet dep ~src) in
  (match outcomes with
  | [ `Accepted _; `Accepted _; `Deferred _; `Deferred _ ] -> ()
  | _ -> Alcotest.fail "expected 2 admitted then 2 deferred");
  Fleet.run fleet ~until:600.;
  let m = Fleet.metrics fleet in
  check int_ "every request eventually completed" 4
    (Metrics.counter m "requests_done");
  check bool_ "deferrals recorded" true
    (Metrics.counter m "requests_deferred" >= 2)

let test_backpressure_reject () =
  let fleet, dep = burst_fleet Shard.Reject in
  let src = Scenario.fleet_src Scenario.default ~wave:0 in
  let outcomes = List.init 4 (fun _ -> Fleet.submit_request fleet dep ~src) in
  let rejected =
    List.length (List.filter (function `Rejected -> true | _ -> false) outcomes)
  in
  check int_ "burst tail rejected" 2 rejected;
  Fleet.run fleet ~until:600.;
  let m = Fleet.metrics fleet in
  check int_ "only the admitted requests ran" 2
    (Metrics.counter m "requests_done");
  check int_ "rejections recorded" 2 (Metrics.counter m "requests_rejected")

(* ------------------------------------------------------------------ *)
(* Labeled metric scopes                                               *)
(* ------------------------------------------------------------------ *)

let test_metric_scopes () =
  let m = Metrics.create () in
  let s0 = Metrics.scoped m (Some "shard0") in
  let s1 = Metrics.scoped m (Some "shard1") in
  Metrics.scope_inc s0 "api_calls";
  Metrics.scope_inc s0 "api_calls";
  Metrics.scope_inc s1 "api_calls";
  check int_ "base counter aggregates every scope" 3
    (Metrics.counter m "api_calls");
  check int_ "shard0 label isolated" 2 (Metrics.counter m "api_calls.shard0");
  check int_ "shard1 label isolated" 1 (Metrics.counter m "api_calls.shard1")

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "fleet.router",
      [
        qtest prop_ring_stability;
        qtest prop_single_owner;
        Alcotest.test_case "single registration" `Quick
          test_fleet_single_registration;
        Alcotest.test_case "partition covers all shards" `Quick
          test_partition_covers_all_shards;
      ] );
    ( "fleet.drift",
      [
        Alcotest.test_case "golden subscribe trace" `Quick
          test_golden_subscribe_trace;
        Alcotest.test_case "cross-shard routing + digest invariance" `Slow
          test_cross_shard_routing_and_digest;
      ] );
    ( "fleet.resilience",
      [
        Alcotest.test_case "crash resumes at shard granularity" `Slow
          test_fleet_crash_resume;
        Alcotest.test_case "defer backpressure" `Quick test_backpressure_defer;
        Alcotest.test_case "reject backpressure" `Quick
          test_backpressure_reject;
      ] );
    ("fleet.obs", [ Alcotest.test_case "metric scopes" `Quick test_metric_scopes ]);
  ]
