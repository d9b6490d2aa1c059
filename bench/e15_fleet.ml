(* E15 (shard fleet): the event-driven multi-shard control plane.

   N tenants spread over a fleet of shards (consistent-hash placement),
   all submitting their apply request at t=0, with out-of-band drift
   injected while the fleet runs.  Drift detection is push-based: one
   multiplexed activity-log subscription per shard, with no polling of
   the log at all.  The bench asserts the E15 claims on its own
   output:

   - scale-out is free: request p99 and drift-detection p50 stay within
     1.5x of the single-shard run as the shard count grows 1 -> 8 (the
     work is tenant-disjoint; sharding must not add latency);
   - cross-shard drift routing works: the shard that classifies a log
     entry is (usually) not the tenant's owner, and the routed events
     still reconcile -- every injection is detected, instantly;
   - a crash mid-wave resumes at shard granularity with zero orphans,
     zero duplicate creates, and a state digest byte-identical to an
     uncrashed run;
   - the canonical state digest is identical at every shard count, and
     two identical runs export byte-identical metrics snapshots;
   - admission backpressure holds: hot tenants pushed over the queue
     bound get deferred (and all complete) or rejected (and are never
     executed), and queue-depth rebalancing moves at least one tenant
     off the hot shard.

   Results land in BENCH_fleet.json (BENCH_fleet_quick.json with
   --quick, which also shrinks the tenant count and shard sweep). *)

open Bench_util
module Activity_log = Cloudless_sim.Activity_log
module Rate_limiter = Cloudless_sim.Rate_limiter
module Failure = Cloudless_sim.Failure
module Cloud_rules = Cloudless_schema.Cloud_rules
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Metrics = Cloudless_obs.Metrics

let resources = 8
let drift_period = 60.

let service_cloud ~seed =
  Cloud.create
    ~config:(Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:1e7 ~refill_rate:1e6)
    ~read_limiter:(Rate_limiter.create ~capacity:1e7 ~refill_rate:1e6)
    ~seed ()

let scenario ~tenants ~shards =
  {
    Scenario.default with
    Scenario.tenants;
    shards;
    deployments_per_tenant = 1;
    resources;
    requests_per_tenant = 1;
    request_interval = 600.;
    drift_events = (if tenants >= 64 then 32 else 8);
    drift_period;
    policy_period = 300.;
    duration = 1800.;
  }

let run_fleet ?crash ~scn ~seed () =
  let cloud = service_cloud ~seed in
  let config = Scenario.service_config scn Shard.fleet_service in
  let fleet =
    ref (Fleet.create ~cloud ~shards:scn.Scenario.shards config)
  in
  let injections = Scenario.install_fleet scn fleet in
  (match crash with
  | Some k -> Fleet.set_crash !fleet (Failure.Crash_after k)
  | None -> ());
  let crashed =
    match Fleet.run !fleet ~until:scn.Scenario.duration with
    | () -> false
    | exception Failure.Engine_crashed _ -> true
  in
  (fleet, !injections, crashed)

(* Join the injection log with the fleet's detection log: latency of
   the first detection at or after each injection. *)
let drift_latencies detections injections =
  List.map
    (fun (inj : Scenario.injection) ->
      match
        List.find_opt
          (fun (cid, at) ->
            cid = inj.Scenario.icloud_id
            && at >= inj.Scenario.injected_at -. 1e-9)
          detections
      with
      | Some (_, at) -> at -. inj.Scenario.injected_at
      | None ->
          failwith
            (Printf.sprintf "e15: injection at t=%.0f never detected"
               inj.Scenario.injected_at))
    injections

let nearest_rank p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let i =
        min (n - 1)
          (max 0 (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
      in
      List.nth sorted i

type leg = {
  shards : int;
  p50 : float;
  p99 : float;
  makespan : float;
  drift_p50 : float;
  drift_max : float;
  mgmt_reads : int;
  api_calls : int;
  cross_routed : int;
  digest : string;
}

let measure_fleet_leg ~scn ~seed =
  let fleet, injections, crashed = run_fleet ~scn ~seed () in
  if crashed then failwith "e15: unexpected crash in measurement leg";
  let fleet = !fleet in
  let m = Fleet.metrics fleet in
  let expected = scn.Scenario.tenants * scn.Scenario.requests_per_tenant in
  if Metrics.counter m "requests_done" <> expected then
    failwith
      (Printf.sprintf "e15: %d/%d requests completed"
         (Metrics.counter m "requests_done")
         expected);
  if Fleet.orphans fleet <> [] then failwith "e15: orphaned resources";
  if List.length injections <> scn.Scenario.drift_events then
    failwith "e15: not all drift injections fired";
  let lat = drift_latencies (Fleet.drift_detections fleet) injections in
  let pctl name p =
    match Metrics.percentile m name p with
    | Some v -> v
    | None -> failwith ("e15: no samples for " ^ name)
  in
  let makespan =
    List.fold_left
      (fun acc (_, _, at) -> Float.max acc at)
      0.
      (Fleet.completed_requests fleet)
  in
  {
    shards = scn.Scenario.shards;
    p50 = pctl "request_latency" 50.;
    p99 = pctl "request_latency" 99.;
    makespan;
    drift_p50 = nearest_rank 50. lat;
    drift_max = List.fold_left Float.max 0. lat;
    mgmt_reads = Metrics.counter m "api_reads";
    api_calls = Metrics.counter m "api_calls";
    cross_routed = Metrics.counter m "cross_shard_routed";
    digest = Fleet.state_digest fleet;
  }

(* --- crash leg: kill the fleet mid-wave, resume, audit ------------- *)

type crash_result = {
  crash_after : int;
  orphans : int;
  dup_creates : int;
  managed : int;
  expected_managed : int;
  digest_matches_uncrashed : bool;
}

let engine_creates cloud =
  List.length
    (List.filter
       (fun (e : Activity_log.entry) ->
         match (e.Activity_log.op, e.Activity_log.actor) with
         | Activity_log.Log_create, Activity_log.Iac_engine _ -> true
         | _ -> false)
       (Activity_log.all (Cloud.log cloud)))

let run_crash_leg ~seed =
  let tenants = 16 in
  (* One request wave: requests submitted while the fleet is down land
     in the dead process's mailbox (lost, as for any crashed endpoint),
     so the digest comparison needs every revision submitted before the
     crash.  The crash lands mid-wave, with creates both journaled-and-
     issued (adopted on resume) and journaled-but-never-issued
     (replanned). *)
  let scn =
    {
      (scenario ~tenants ~shards:2) with
      Scenario.requests_per_tenant = 1;
      drift_events = 0;
      policy_period = 0.;
      duration = 1200.;
    }
  in
  (* Reference digest: the same scenario, never crashed. *)
  let ref_fleet, _, _ = run_fleet ~scn ~seed () in
  let ref_digest = Fleet.state_digest !ref_fleet in
  let crash_after = 30 in
  let fleet_ref, _, crashed =
    run_fleet ~crash:crash_after ~scn ~seed ()
  in
  if not crashed then failwith "e15: crash leg did not crash";
  let fresh, _reports = Fleet.resume !fleet_ref in
  fleet_ref := fresh;
  Fleet.run fresh ~until:scn.Scenario.duration;
  let expected_managed = tenants * resources in
  let managed = Fleet.managed_resource_count fresh in
  let dup_creates = engine_creates (Fleet.cloud fresh) - managed in
  {
    crash_after;
    orphans = List.length (Fleet.orphans fresh);
    dup_creates;
    managed;
    expected_managed;
    digest_matches_uncrashed = String.equal (Fleet.state_digest fresh) ref_digest;
  }

(* --- determinism leg ----------------------------------------------- *)

let snapshot_of_run ~shards ~seed =
  let fleet_ref, _, _ =
    run_fleet ~scn:(scenario ~tenants:24 ~shards) ~seed ()
  in
  Metrics.to_json (Fleet.metrics !fleet_ref)

(* --- backpressure + rebalance leg ---------------------------------- *)

type pressure_result = {
  deferred : int;
  rejected : int;
  rebalance_moves : int;
  defer_all_done : bool;
  reject_none_lost : bool;
}

let pressure_scenario admission =
  {
    (scenario ~tenants:8 ~shards:2) with
    Scenario.requests_per_tenant = 2;
    request_interval = 300.;
    drift_events = 0;
    policy_period = 0.;
    duration = 1200.;
    hot_tenants = 2;
    hot_burst = 8;
    max_queue_depth = 4;
    admission;
    rebalance_period = 20.;
  }

let run_pressure_leg ~seed =
  let scn = pressure_scenario Shard.Defer in
  let fleet_ref, _, _ = run_fleet ~scn ~seed () in
  let m = Fleet.metrics !fleet_ref in
  let deferred = Metrics.counter m "requests_deferred" in
  let moves = Metrics.counter m "rebalance_moves" in
  let defer_all_done =
    Metrics.counter m "requests_done" = Metrics.counter m "requests"
  in
  let scn_r = pressure_scenario Shard.Reject in
  let fleet_r, _, _ = run_fleet ~scn:scn_r ~seed () in
  let mr = Fleet.metrics !fleet_r in
  let rejected = Metrics.counter mr "requests_rejected" in
  let reject_none_lost =
    Metrics.counter mr "requests_done" = Metrics.counter mr "requests"
  in
  { deferred; rejected; rebalance_moves = moves; defer_all_done; reject_none_lost }

(* --- JSON ---------------------------------------------------------- *)

let json_file ~quick =
  if quick then "BENCH_fleet_quick.json" else "BENCH_fleet.json"

let json_of_leg l =
  Printf.sprintf
    "    {\"shards\": %d, \"p50\": %.2f, \"p99\": %.2f, \"makespan\": %.2f, \
     \"drift_p50\": %.2f, \"drift_max\": %.2f, \"mgmt_reads\": %d, \
     \"api_calls\": %d, \"cross_shard_routed\": %d, \"digest\": \"%s\"}"
    l.shards l.p50 l.p99 l.makespan l.drift_p50 l.drift_max l.mgmt_reads
    l.api_calls l.cross_routed l.digest

let write_json ~quick ~tenants ~legs ~big ~(crash : crash_result)
    ~(pressure : pressure_result) ~determinism_ok =
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e15_fleet\",\n\
    \  \"quick\": %b,\n\
    \  \"tenants\": %d,\n\
    \  \"resources_per_tenant\": %d,\n\
    \  \"drift_period\": %.0f,\n\
    \  \"shard_sweep\": [\n\
     %s\n\
    \  ],\n\
     %s\
    \  \"crash\": {\"tenants\": 16, \"shards\": 2, \"crash_after\": %d, \
     \"orphans\": %d, \"dup_creates\": %d, \"managed\": %d, \
     \"expected_managed\": %d, \"digest_matches_uncrashed\": %b},\n\
    \  \"backpressure\": {\"deferred\": %d, \"rejected\": %d, \
     \"rebalance_moves\": %d, \"defer_all_done\": %b, \
     \"reject_none_lost\": %b},\n\
    \  \"summary\": {\"p99_flat_across_shards\": true, \
     \"drift_p50_flat_across_shards\": true, \
     \"digest_shard_invariant\": true, \"determinism_ok\": %b}\n\
     }\n"
    quick tenants resources drift_period
    (String.concat ",\n" (List.map json_of_leg legs))
    (match big with
    | None -> ""
    | Some l ->
        (* the leg object with a tenants field spliced in *)
        let body = String.trim (json_of_leg l) in
        let inner = String.sub body 1 (String.length body - 2) in
        Printf.sprintf "  \"big\": {\"tenants\": 1024,%s},\n" inner)
    crash.crash_after crash.orphans crash.dup_creates crash.managed
    crash.expected_managed crash.digest_matches_uncrashed pressure.deferred
    pressure.rejected pressure.rebalance_moves pressure.defer_all_done
    pressure.reject_none_lost determinism_ok;
  close_out oc

(* --- assertions ---------------------------------------------------- *)

let assert_claims legs (crash : crash_result)
    (pressure : pressure_result) determinism_ok =
  let base =
    match legs with
    | l :: _ when l.shards = 1 -> l
    | _ -> failwith "e15: sweep must start at one shard"
  in
  List.iter
    (fun l ->
      (* scale-out must not cost latency: the work is tenant-disjoint *)
      if l.p99 > 1.5 *. base.p99 then
        failwith
          (Printf.sprintf "e15: p99 at %d shards exceeds 1.5x single-shard"
             l.shards);
      if l.drift_p50 > 1.5 *. Float.max 1. base.drift_p50 then
        failwith
          (Printf.sprintf
             "e15: drift p50 at %d shards exceeds 1.5x single-shard" l.shards);
      (* push detection is within one poll period by a wide margin *)
      if l.drift_max > drift_period then
        failwith "e15: subscription drift latency exceeded one poll period";
      (* the digest is shard-count-invariant *)
      if not (String.equal l.digest base.digest) then
        failwith
          (Printf.sprintf "e15: state digest differs at %d shards" l.shards);
      (* classification shard != owner shard happens once there are >1 *)
      if l.shards > 1 && l.cross_routed = 0 then
        failwith
          (Printf.sprintf "e15: no cross-shard drift routing at %d shards"
             l.shards))
    legs;
  if crash.orphans <> 0 then failwith "e15: crash leg left orphans";
  if crash.dup_creates <> 0 then failwith "e15: crash leg duplicated creates";
  if crash.managed <> crash.expected_managed then
    failwith "e15: crash leg lost resources";
  if not crash.digest_matches_uncrashed then
    failwith "e15: post-resume digest differs from uncrashed run";
  if pressure.deferred = 0 then
    failwith "e15: hot tenants never tripped the defer bound";
  if not pressure.defer_all_done then
    failwith "e15: deferred requests did not all complete";
  if pressure.rejected = 0 then
    failwith "e15: hot tenants never tripped the reject bound";
  if not pressure.reject_none_lost then
    failwith "e15: accepted requests lost under reject admission";
  if pressure.rebalance_moves = 0 then
    failwith "e15: rebalancer never moved a tenant off the hot shard";
  if not determinism_ok then
    failwith "e15: metrics snapshots not byte-identical"

(* --- driver -------------------------------------------------------- *)

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E15: multi-shard fleet%s" (if quick then " (quick)" else ""));
  let seed = 42 in
  let tenants = if quick then 24 else 512 in
  let shard_counts = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let widths = [ 7; 9; 9; 10; 9; 9; 9; 10 ] in
  row widths
    [
      "shards"; "p50"; "p99"; "makespan"; "drift50"; "driftmax"; "mgmt_rd";
      "x-routed";
    ];
  hline widths;
  let legs =
    List.map
      (fun shards ->
        let scn = scenario ~tenants ~shards in
        let l = measure_fleet_leg ~scn ~seed in
        row widths
          [
            string_of_int shards;
            fmt_s l.p50;
            fmt_s l.p99;
            fmt_s l.makespan;
            fmt_s l.drift_p50;
            fmt_s l.drift_max;
            string_of_int l.mgmt_reads;
            string_of_int l.cross_routed;
          ];
        l)
      shard_counts
  in
  let big =
    if quick then None
    else begin
      let l = measure_fleet_leg ~scn:(scenario ~tenants:1024 ~shards:8) ~seed in
      Printf.printf "1024 tenants @ 8 shards: p99=%.2f drift_p50=%.2f \
                     mgmt_reads=%d cross_routed=%d\n"
        l.p99 l.drift_p50 l.mgmt_reads l.cross_routed;
      Some l
    end
  in
  let crash = run_crash_leg ~seed in
  Printf.printf
    "crash leg (16 tenants, 2 shards, crash after write %d): orphans=%d \
     dup_creates=%d managed=%d/%d digest_match=%b\n"
    crash.crash_after crash.orphans crash.dup_creates crash.managed
    crash.expected_managed crash.digest_matches_uncrashed;
  let pressure = run_pressure_leg ~seed in
  Printf.printf
    "backpressure: deferred=%d rejected=%d rebalance_moves=%d all_done=%b\n"
    pressure.deferred pressure.rejected pressure.rebalance_moves
    pressure.defer_all_done;
  let determinism_ok =
    List.for_all
      (fun shards ->
        String.equal (snapshot_of_run ~shards ~seed) (snapshot_of_run ~shards ~seed))
      shard_counts
  in
  Printf.printf "metrics determinism at shards {%s}: %s\n"
    (String.concat "," (List.map string_of_int shard_counts))
    (if determinism_ok then "ok" else "FAILED");
  assert_claims legs crash pressure determinism_ok;
  write_json ~quick ~tenants ~legs ~big ~crash ~pressure ~determinism_ok;
  Printf.printf "wrote %s\n" (json_file ~quick)
