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
open Fleet_harness

let exp = "e15"
let resources = 8
let drift_period = 60.

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

(* --- crash leg: kill the fleet mid-wave, resume, audit ------------- *)

(* One request wave: requests submitted while the fleet is down land
   in the dead process's mailbox (lost, as for any crashed endpoint),
   so the digest comparison needs every revision submitted before the
   crash.  The crash lands mid-wave, with creates both journaled-and-
   issued (adopted on resume) and journaled-but-never-issued
   (replanned). *)
let crash_scenario =
  {
    (scenario ~tenants:16 ~shards:2) with
    Scenario.requests_per_tenant = 1;
    drift_events = 0;
    policy_period = 0.;
    duration = 1200.;
  }

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
  let metrics admission =
    Fleet.metrics !((run ~seed (pressure_scenario admission)).fleet)
  in
  let m = metrics Shard.Defer in
  let mr = metrics Shard.Reject in
  let all_done m =
    Metrics.counter m "requests_done" = Metrics.counter m "requests"
  in
  {
    deferred = Metrics.counter m "requests_deferred";
    rejected = Metrics.counter mr "requests_rejected";
    rebalance_moves = Metrics.counter m "rebalance_moves";
    defer_all_done = all_done m;
    reject_none_lost = all_done mr;
  }

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

let write_json ~quick ~tenants ~legs ~big ~crash ~pressure ~determinism_ok =
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

let assert_claims legs crash pressure determinism_ok =
  let base =
    match legs with
    | l :: _ when l.shards = 1 -> l
    | _ -> failwith "e15: sweep must start at one shard"
  in
  List.iter
    (fun l ->
      (* scale-out must not cost latency: the work is tenant-disjoint *)
      claim exp (l.p99 <= 1.5 *. base.p99)
        "p99 at %d shards exceeds 1.5x single-shard" l.shards;
      claim exp
        (l.drift_p50 <= 1.5 *. Float.max 1. base.drift_p50)
        "drift p50 at %d shards exceeds 1.5x single-shard" l.shards;
      (* push detection is within one poll period by a wide margin *)
      claim exp (l.drift_max <= drift_period)
        "subscription drift latency exceeded one poll period";
      (* the digest is shard-count-invariant *)
      claim exp (String.equal l.digest base.digest)
        "state digest differs at %d shards" l.shards;
      (* classification shard != owner shard happens once there are >1 *)
      claim exp (l.shards <= 1 || l.cross_routed <> 0)
        "no cross-shard drift routing at %d shards" l.shards)
    legs;
  check_crash ~exp crash;
  claim exp (pressure.deferred <> 0) "hot tenants never tripped the defer bound";
  claim exp pressure.defer_all_done "deferred requests did not all complete";
  claim exp (pressure.rejected <> 0) "hot tenants never tripped the reject bound";
  claim exp pressure.reject_none_lost
    "accepted requests lost under reject admission";
  claim exp
    (pressure.rebalance_moves <> 0)
    "rebalancer never moved a tenant off the hot shard";
  claim exp determinism_ok "metrics snapshots not byte-identical"

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
        let l = measure ~exp ~seed (scenario ~tenants ~shards) in
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
      let l = measure ~exp ~seed (scenario ~tenants:1024 ~shards:8) in
      Printf.printf "1024 tenants @ 8 shards: p99=%.2f drift_p50=%.2f \
                     mgmt_reads=%d cross_routed=%d\n"
        l.p99 l.drift_p50 l.mgmt_reads l.cross_routed;
      Some l
    end
  in
  let crash = scenario_crash_leg ~exp ~k:30 ~seed crash_scenario in
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
      (fun shards -> deterministic ~seed (scenario ~tenants:24 ~shards))
      shard_counts
  in
  Printf.printf "metrics determinism at shards {%s}: %s\n"
    (String.concat "," (List.map string_of_int shard_counts))
    (if determinism_ok then "ok" else "FAILED");
  assert_claims legs crash pressure determinism_ok;
  write_json ~quick ~tenants ~legs ~big ~crash ~pressure ~determinism_ok;
  Printf.printf "wrote %s\n" (json_file ~quick)
