(* The fleet-experiment harness: what E14, E15, E17 and E18 share.

   Each of them drives a {!Fleet} of shards on a simulated cloud and
   asserts its claims on its own output.  The parts that must stay the
   same across them live here, once: the service cloud, one scenario
   run, the crash-and-resume audit, the two-run determinism check, the
   measured leg E14 and E15 read, the drift-latency join and the claim
   checker.  Each experiment keeps its own scenarios, specific legs,
   tables, claim thresholds and JSON layout. *)

open Bench_util
module Rate_limiter = Cloudless_sim.Rate_limiter
module Failure = Cloudless_sim.Failure
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Metrics = Cloudless_obs.Metrics

(* [claim exp ok fmt ...] fails experiment [exp] with the formatted
   message unless [ok]. *)
let claim exp ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failwith (exp ^ ": " ^ msg)) fmt

(* Effectively unlimited API token budgets, so the numbers isolate
   admission and scheduling from provider throttling (E1 and E10 own
   the rate-limit interplay). *)
let service_cloud ~seed =
  Cloud.create
    ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:1e7 ~refill_rate:1e6)
    ~read_limiter:(Rate_limiter.create ~capacity:1e7 ~refill_rate:1e6)
    ~seed ()

(* Run [!fleet] to [until], crashing after journaled write [crash] when
   one is given.  True when the crash gate tripped. *)
let drive ?crash fleet ~until =
  Option.iter (fun k -> Fleet.set_crash !fleet (Failure.Crash_after k)) crash;
  match Fleet.run !fleet ~until with
  | () -> false
  | exception Failure.Engine_crashed _ -> true

type run = {
  fleet : Fleet.t ref;  (** a resume puts the successor here *)
  injections : Scenario.injection list;
  crashed : bool;
}

(* One scenario run on the service cloud: [scn] specializes [preset],
   its schedule is installed, [install] adds the experiment's own
   callbacks, and the fleet runs to the scenario's horizon. *)
let run ?crash ?(preset = Shard.fleet_service) ?(install = ignore) ~seed scn =
  let cloud = service_cloud ~seed in
  let config = Scenario.service_config scn preset in
  let fleet = ref (Fleet.create ~cloud ~shards:scn.Scenario.shards config) in
  let injections = Scenario.install_fleet scn fleet in
  install fleet;
  let crashed = drive ?crash fleet ~until:scn.Scenario.duration in
  { fleet; injections = !injections; crashed }

(* Two identical runs of [scn] export byte-identical metrics
   snapshots. *)
let deterministic ~seed scn =
  let snapshot () = Metrics.to_json (Fleet.metrics !((run ~seed scn).fleet)) in
  String.equal (snapshot ()) (snapshot ())

(* --- crash leg: crash after write k, resume, audit ------------------ *)

type crash = {
  crash_after : int;
  orphans : int;
  dup_creates : int;
  managed : int;
  expected_managed : int;
  digest_matches_uncrashed : bool;
  successor : Fleet.t;  (** the resumed fleet, run to the horizon *)
}

(* [start crash] builds and runs one fleet of [scn] and returns it,
   whether it crashed, and what the experiment keeps of the run.  The
   leg runs it uncrashed as the reference, then crashed after write
   [crash_after reference].  {!Fleet.resume} builds the successor on
   the same cloud, [resume] restarts whatever else the experiment
   drives (E18's rollout), and the successor runs to the horizon.
   Returns the audit and what [resume] returned. *)
let crash_leg ~exp ~scn ~start ~crash_after ~resume =
  let reference, _, _ = start None in
  let digest = Fleet.state_digest !reference in
  let k = crash_after !reference in
  let fleet, crashed, kept = start (Some k) in
  claim exp crashed "crash leg did not crash";
  let fresh, _reports = Fleet.resume !fleet in
  fleet := fresh;
  let resumed = resume kept fleet in
  Fleet.run fresh ~until:scn.Scenario.duration;
  let managed = Fleet.managed_resource_count fresh in
  ( {
      crash_after = k;
      orphans = List.length (Fleet.orphans fresh);
      dup_creates = engine_creates (Fleet.cloud fresh) - managed;
      managed;
      expected_managed = scn.Scenario.tenants * scn.Scenario.resources;
      digest_matches_uncrashed = String.equal (Fleet.state_digest fresh) digest;
      successor = fresh;
    },
    resumed )

(* The crash leg of a scenario run that crashes after write [k]. *)
let scenario_crash_leg ~exp ~k ~seed scn =
  let start crash =
    let r = run ?crash ~seed scn in
    (r.fleet, r.crashed, ())
  in
  fst
    (crash_leg ~exp ~scn ~start ~crash_after:(fun _ -> k)
       ~resume:(fun () _ -> ()))

(* The audit a crash leg passes: nothing orphaned, nothing created
   twice, every resource managed and, unless [digest] is false, the
   state of the uncrashed run. *)
let check_crash ~exp ?(digest = true) c =
  claim exp (c.orphans = 0) "crash leg left orphans";
  claim exp (c.dup_creates = 0) "crash leg duplicated creates";
  claim exp (c.managed = c.expected_managed) "crash leg lost resources";
  claim exp
    ((not digest) || c.digest_matches_uncrashed)
    "post-resume digest differs from uncrashed run"

(* --- measured leg (E14, E15) ---------------------------------------- *)

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

(* When the fleet first detected [inj]'s resource at or after the
   injection, if it did. *)
let detected_at detections (inj : Scenario.injection) =
  List.find_map
    (fun (cid, at) ->
      if cid = inj.Scenario.icloud_id && at >= inj.Scenario.injected_at -. 1e-9
      then Some at
      else None)
    detections

(* Join the injection log with the fleet's detection log: latency of
   the first detection at or after each injection. *)
let drift_latencies ~exp fleet injections =
  let detections = Fleet.drift_detections fleet in
  List.map
    (fun (inj : Scenario.injection) ->
      match detected_at detections inj with
      | Some at -> at -. inj.Scenario.injected_at
      | None ->
          failwith
            (Printf.sprintf "%s: injection at t=%.0f never detected" exp
               inj.Scenario.injected_at))
    injections

type measured = {
  shards : int;
  p50 : float;
  p99 : float;
  makespan : float;
  drift_p50 : float;
  drift_max : float;
  mgmt_reads : int;
  api_calls : int;
  lock_waits : int;
  cross_routed : int;
  digest : string;
}

(* Run [scn] uncrashed and read its request latencies, makespan, drift
   latencies and management-plane calls, after checking that every
   request completed, nothing was orphaned, every drift injection
   fired and the policy controller ticked. *)
let measure ~exp ?preset ~seed scn =
  let r = run ?preset ~seed scn in
  claim exp (not r.crashed) "unexpected crash in measurement leg";
  let fleet = !(r.fleet) in
  let m = Fleet.metrics fleet in
  let expected = scn.Scenario.tenants * scn.Scenario.requests_per_tenant in
  let done_ = Metrics.counter m "requests_done" in
  claim exp (done_ = expected) "%d/%d requests completed" done_ expected;
  claim exp (Fleet.orphans fleet = []) "orphaned resources";
  claim exp
    (List.length r.injections = scn.Scenario.drift_events)
    "not all drift injections fired";
  claim exp
    (scn.Scenario.policy_period = 0. || Metrics.counter m "policy_ticks" > 0)
    "policy never ticked";
  let lat = drift_latencies ~exp fleet r.injections in
  let pctl p =
    match Metrics.percentile m "request_latency" p with
    | Some v -> v
    | None -> failwith (exp ^ ": no samples for request_latency")
  in
  {
    shards = scn.Scenario.shards;
    p50 = pctl 50.;
    p99 = pctl 99.;
    makespan =
      List.fold_left
        (fun acc (_, _, at) -> Float.max acc at)
        0.
        (Fleet.completed_requests fleet);
    drift_p50 = nearest_rank 50. lat;
    drift_max = List.fold_left Float.max 0. lat;
    mgmt_reads = Metrics.counter m "api_reads";
    api_calls = Metrics.counter m "api_calls";
    lock_waits =
      List.fold_left
        (fun acc s ->
          acc + snd (Cloudless_lock.Lock_manager.stats (Shard.lock s)))
        0 (Fleet.shards fleet);
    cross_routed = Metrics.counter m "cross_shard_routed";
    digest = Fleet.state_digest fleet;
  }
