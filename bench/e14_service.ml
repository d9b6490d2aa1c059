(* E14 (service load): the multi-tenant control plane vs a
   Terraform-style baseline operationated as a service.

   N tenants each own an 8-resource fleet.  All tenants submit their
   apply request at t=0, out-of-band drift is injected while the
   service runs, and a policy controller ticks throughout.  The same
   scenario drives two service configurations, each on a one-shard
   {!Fleet}:

   - cloudless: per-deployment lock admission (disjoint tenants run
     concurrently), push-based drift detection through the activity-log
     subscription (zero management reads), reconciles scoped to the
     impact subgraph;
   - baseline: one global lock (all work serializes in FIFO order),
     a full state refresh before every apply, and periodic scan sweeps
     that Read every tracked resource.

   Both clouds get effectively unlimited API token budgets so the
   numbers isolate admission/scheduling from provider throttling
   (E1/E10 own the rate-limit interplay).

   Measured per tenant count (4 -> 64): tenant-request p50/p99 latency
   and makespan, drift-detection latency (injection joined with the
   service's detection log), and management-plane reads.  The bench
   asserts the paper's claims on its own output:

   - per-deployment admission beats the global lock on p99 with the
     gap growing roughly k-fold in the tenant count (per E3);
   - push-based drift detection is instant, while the baseline's
     sweep-based detection degrades with fleet size as sweeps queue
     behind the global lock, and its read bill is at least 10x the
     control plane's (per E5);
   - a crash mid-service resumes to exactly the expected fleets with
     zero orphans and zero duplicate creates (per E13);
   - two identical runs export byte-identical metrics snapshots.

   Results land in BENCH_service.json (BENCH_service_quick.json with
   --quick, which also shrinks the tenant sweep). *)

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
    ~write_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~read_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~seed ()

let scenario tenants =
  {
    Scenario.default with
    Scenario.tenants;
    shards = 1;
    deployments_per_tenant = 1;
    resources;
    requests_per_tenant = 1;
    request_interval = 600.;
    drift_events = 8;
    drift_period;
    policy_period = 300.;
    duration = 1800.;
  }

let run_service ?crash ~preset ~scn ~seed () =
  let cloud = service_cloud ~seed in
  let config = Scenario.service_config scn preset in
  let cp = ref (Fleet.create ~cloud ~shards:scn.Scenario.shards config) in
  let injections = Scenario.install_fleet scn cp in
  (match crash with
  | Some k -> Fleet.set_crash !cp (Failure.Crash_after k)
  | None -> ());
  let crashed =
    match Fleet.run !cp ~until:scn.Scenario.duration with
    | () -> false
    | exception Failure.Engine_crashed _ -> true
  in
  (cp, !injections, crashed)

(* Join the scenario's injection log with the service's detection log:
   latency of the first detection at or after each injection. *)
let drift_latencies cp injections =
  let detections = Fleet.drift_detections cp in
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
            (Printf.sprintf "e14: injection at t=%.0f never detected"
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
  p50 : float;
  p99 : float;
  makespan : float;
  drift_p50 : float;
  drift_max : float;
  mgmt_reads : int;
  api_calls : int;
  lock_waits : int;
}

let measure_leg ~preset ~scn ~seed =
  let cp, injections, crashed = run_service ~preset ~scn ~seed () in
  if crashed then failwith "e14: unexpected crash in measurement leg";
  let cp = !cp in
  let m = Fleet.metrics cp in
  let expected = scn.Scenario.tenants * scn.Scenario.requests_per_tenant in
  if Metrics.counter m "requests_done" <> expected then
    failwith
      (Printf.sprintf "e14: %d/%d requests completed"
         (Metrics.counter m "requests_done")
         expected);
  if Fleet.orphans cp <> [] then failwith "e14: orphaned resources";
  if List.length injections <> scn.Scenario.drift_events then
    failwith "e14: not all drift injections fired";
  if Metrics.counter m "policy_ticks" = 0 then failwith "e14: policy never ticked";
  let lat = drift_latencies cp injections in
  let pctl name p =
    match Metrics.percentile m name p with
    | Some v -> v
    | None -> failwith ("e14: no samples for " ^ name)
  in
  let makespan =
    List.fold_left
      (fun acc (_, _, at) -> Float.max acc at)
      0.
      (Fleet.completed_requests cp)
  in
  let lock_waits =
    List.fold_left
      (fun acc s -> acc + snd (Cloudless_lock.Lock_manager.stats (Shard.lock s)))
      0 (Fleet.shards cp)
  in
  {
    p50 = pctl "request_latency" 50.;
    p99 = pctl "request_latency" 99.;
    makespan;
    drift_p50 = nearest_rank 50. lat;
    drift_max = List.fold_left Float.max 0. lat;
    mgmt_reads = Metrics.counter m "api_reads";
    api_calls = Metrics.counter m "api_calls";
    lock_waits;
  }

type sample = { tenants : int; cp : leg; base : leg }

(* --- crash leg: kill the service mid-wave, resume, audit ----------- *)

type crash_result = {
  crash_after : int;
  orphans : int;
  dup_creates : int;
  managed : int;
  expected_managed : int;
  replans_empty : bool;
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
  let tenants = 8 in
  let scn =
    {
      (scenario tenants) with
      Scenario.requests_per_tenant = 2;
      request_interval = 400.;
      drift_events = 0;
      policy_period = 0.;
      duration = 1200.;
    }
  in
  let crash_after = 30 in
  let cp_ref, _, crashed =
    run_service ~crash:crash_after ~preset:Shard.fleet_service ~scn ~seed ()
  in
  if not crashed then failwith "e14: crash leg did not crash";
  let fresh, _reports = Fleet.resume !cp_ref in
  cp_ref := fresh;
  Fleet.run fresh ~until:scn.Scenario.duration;
  let expected_managed = tenants * resources in
  let managed = Fleet.managed_resource_count fresh in
  let dup_creates = engine_creates (Fleet.cloud fresh) - managed in
  let replans_empty =
    List.for_all
      (fun (d : Shard.deployment) ->
        let instances = Shard.expand ~state:d.Shard.state d.Shard.config_src in
        Plan.is_empty (Plan.make ~state:d.Shard.state instances))
      (Fleet.deployments fresh)
  in
  {
    crash_after;
    orphans = List.length (Fleet.orphans fresh);
    dup_creates;
    managed;
    expected_managed;
    replans_empty;
  }

(* --- determinism leg ----------------------------------------------- *)

let snapshot_of_run ~seed =
  let cp_ref, _, _ =
    run_service ~preset:Shard.fleet_service ~scn:(scenario 4) ~seed ()
  in
  Metrics.to_json (Fleet.metrics !cp_ref)

(* --- JSON ---------------------------------------------------------- *)

let json_file ~quick =
  if quick then "BENCH_service_quick.json" else "BENCH_service.json"

let json_of_leg l =
  Printf.sprintf
    "{\"p50\": %.2f, \"p99\": %.2f, \"makespan\": %.2f, \"drift_p50\": %.2f, \
     \"drift_max\": %.2f, \"mgmt_reads\": %d, \"api_calls\": %d, \
     \"lock_waits\": %d}"
    l.p50 l.p99 l.makespan l.drift_p50 l.drift_max l.mgmt_reads l.api_calls
    l.lock_waits

let json_of_sample s =
  Printf.sprintf
    "    {\"tenants\": %d,\n     \"cloudless\": %s,\n     \"baseline\": %s,\n\
    \     \"p99_ratio\": %.2f, \"reads_ratio\": %.1f}"
    s.tenants (json_of_leg s.cp) (json_of_leg s.base) (s.base.p99 /. s.cp.p99)
    (float_of_int s.base.mgmt_reads /. float_of_int (max 1 s.cp.mgmt_reads))

let write_json ~quick ~samples ~(crash : crash_result) ~determinism_ok =
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e14_service\",\n\
    \  \"quick\": %b,\n\
    \  \"resources_per_tenant\": %d,\n\
    \  \"drift_period\": %.0f,\n\
    \  \"samples\": [\n\
     %s\n\
    \  ],\n\
    \  \"crash\": {\"tenants\": 8, \"crash_after\": %d, \"orphans\": %d, \
     \"dup_creates\": %d, \"managed\": %d, \"expected_managed\": %d, \
     \"replans_empty\": %b},\n\
    \  \"summary\": {\"cp_wins_p99_everywhere\": true, \
     \"p99_gap_grows\": true, \"push_detection_instant\": true, \
     \"determinism_ok\": %b}\n\
     }\n"
    quick resources drift_period
    (String.concat ",\n" (List.map json_of_sample samples))
    crash.crash_after crash.orphans crash.dup_creates crash.managed
    crash.expected_managed crash.replans_empty determinism_ok;
  close_out oc

(* --- assertions ---------------------------------------------------- *)

let assert_claims samples crash determinism_ok =
  List.iter
    (fun s ->
      if s.cp.p99 >= s.base.p99 then
        failwith
          (Printf.sprintf "e14: control plane lost on p99 at %d tenants"
             s.tenants);
      (* lock admission: disjoint tenants never wait under per-resource
         granularity, always wait under the global lock *)
      if s.cp.lock_waits <> 0 then
        failwith "e14: per-resource admission produced lock waits";
      if s.base.lock_waits < s.tenants - 1 then
        failwith "e14: global lock produced no serialization";
      (* push detection classifies each entry at its append instant *)
      if s.cp.drift_max <> 0. then
        failwith "e14: push drift detection was not instant";
      (* management reads: detection reads nothing; scoped reconciles
         read a few rows; sweeps read the world *)
      if s.base.mgmt_reads < 10 * max 1 s.cp.mgmt_reads then
        failwith "e14: baseline read amplification below 10x")
    samples;
  (match (samples, List.rev samples) with
  | first :: _, last :: _ when first.tenants < last.tenants ->
      if
        last.base.p99 /. last.cp.p99 <= first.base.p99 /. first.cp.p99
      then failwith "e14: p99 gap did not grow with tenant count";
      (* k-fold: the serialized backlog scales with the tenant count *)
      if last.base.p99 /. last.cp.p99 < float_of_int last.tenants /. 3. then
        failwith "e14: p99 gap not in the k-fold regime";
      if last.base.drift_max <= first.base.drift_max then
        failwith "e14: scan detection latency did not degrade with scale"
  | _ -> ());
  if crash.orphans <> 0 then failwith "e14: crash leg left orphans";
  if crash.dup_creates <> 0 then failwith "e14: crash leg duplicated creates";
  if crash.managed <> crash.expected_managed then
    failwith "e14: crash leg lost resources";
  if not crash.replans_empty then
    failwith "e14: post-resume plans not empty";
  if not determinism_ok then
    failwith "e14: metrics snapshots not byte-identical"

(* --- driver -------------------------------------------------------- *)

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E14: multi-tenant service load%s"
       (if quick then " (quick)" else ""));
  let seed = 42 in
  let tenant_counts = if quick then [ 4; 8 ] else [ 4; 8; 16; 32; 64 ] in
  let widths = [ 8; 9; 9; 10; 10; 11; 11; 9; 9 ] in
  row widths
    [
      "tenants"; "cp_p99"; "base_p99"; "p99_ratio"; "cp_drift"; "base_drift";
      "cp_reads"; "base_rd"; "waits";
    ];
  hline widths;
  let samples =
    List.map
      (fun tenants ->
        let scn = scenario tenants in
        let cp =
          measure_leg ~preset:Shard.fleet_service ~scn ~seed
        in
        let base =
          measure_leg ~preset:Shard.baseline_service ~scn ~seed
        in
        row widths
          [
            string_of_int tenants;
            fmt_s cp.p99;
            fmt_s base.p99;
            fmt_x (base.p99 /. cp.p99);
            fmt_s cp.drift_p50;
            fmt_s base.drift_p50;
            string_of_int cp.mgmt_reads;
            string_of_int base.mgmt_reads;
            string_of_int base.lock_waits;
          ];
        { tenants; cp; base })
      tenant_counts
  in
  let crash = run_crash_leg ~seed in
  Printf.printf
    "crash leg (8 tenants, crash after write %d): orphans=%d dup_creates=%d \
     managed=%d/%d replans_empty=%b\n"
    crash.crash_after crash.orphans crash.dup_creates crash.managed
    crash.expected_managed crash.replans_empty;
  let determinism_ok = String.equal (snapshot_of_run ~seed) (snapshot_of_run ~seed) in
  Printf.printf "metrics determinism: %s\n" (if determinism_ok then "ok" else "FAILED");
  assert_claims samples crash determinism_ok;
  write_json ~quick ~samples ~crash ~determinism_ok;
  Printf.printf "wrote %s\n" (json_file ~quick)
