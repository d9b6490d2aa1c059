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
open Fleet_harness

let exp = "e14"
let resources = 8
let drift_period = 60.

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

type sample = { tenants : int; cp : measured; base : measured }

(* --- crash leg: kill the service mid-wave, resume, audit ----------- *)

let crash_scenario =
  {
    (scenario 8) with
    Scenario.requests_per_tenant = 2;
    request_interval = 400.;
    drift_events = 0;
    policy_period = 0.;
    duration = 1200.;
  }

(* Every deployment's config replans to nothing against its resumed
   state. *)
let replans_empty fleet =
  List.for_all
    (fun (d : Shard.deployment) ->
      let instances = Shard.expand ~state:d.Shard.state d.Shard.config_src in
      Plan.is_empty (Plan.make ~state:d.Shard.state instances))
    (Fleet.deployments fleet)

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

let write_json ~quick ~samples ~crash ~replans_empty ~determinism_ok =
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
    crash.expected_managed replans_empty determinism_ok;
  close_out oc

(* --- assertions ---------------------------------------------------- *)

let assert_claims samples crash ~replans_empty determinism_ok =
  List.iter
    (fun s ->
      claim exp (s.cp.p99 < s.base.p99)
        "control plane lost on p99 at %d tenants" s.tenants;
      (* lock admission: disjoint tenants never wait under per-resource
         granularity, always wait under the global lock *)
      claim exp (s.cp.lock_waits = 0)
        "per-resource admission produced lock waits";
      claim exp (s.base.lock_waits >= s.tenants - 1)
        "global lock produced no serialization";
      (* push detection classifies each entry at its append instant *)
      claim exp (s.cp.drift_max = 0.) "push drift detection was not instant";
      (* management reads: detection reads nothing; scoped reconciles
         read a few rows; sweeps read the world *)
      claim exp
        (s.base.mgmt_reads >= 10 * max 1 s.cp.mgmt_reads)
        "baseline read amplification below 10x")
    samples;
  (match (samples, List.rev samples) with
  | first :: _, last :: _ when first.tenants < last.tenants ->
      let gap s = s.base.p99 /. s.cp.p99 in
      claim exp (gap last > gap first) "p99 gap did not grow with tenant count";
      (* k-fold: the serialized backlog scales with the tenant count *)
      claim exp
        (gap last >= float_of_int last.tenants /. 3.)
        "p99 gap not in the k-fold regime";
      claim exp
        (last.base.drift_max > first.base.drift_max)
        "scan detection latency did not degrade with scale"
  | _ -> ());
  (* No digest claim: Fleet.resume settles the cloud's whole event
     queue, so the second revision wave reaches the dead fleet. *)
  check_crash ~exp ~digest:false crash;
  claim exp replans_empty "post-resume plans not empty";
  claim exp determinism_ok "metrics snapshots not byte-identical"

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
        let cp = measure ~exp ~seed scn in
        let base = measure ~exp ~preset:Shard.baseline_service ~seed scn in
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
  let crash = scenario_crash_leg ~exp ~k:30 ~seed crash_scenario in
  let replans_empty = replans_empty crash.successor in
  Printf.printf
    "crash leg (8 tenants, crash after write %d): orphans=%d dup_creates=%d \
     managed=%d/%d replans_empty=%b\n"
    crash.crash_after crash.orphans crash.dup_creates crash.managed
    crash.expected_managed replans_empty;
  let determinism_ok = deterministic ~seed (scenario 4) in
  Printf.printf "metrics determinism: %s\n" (if determinism_ok then "ok" else "FAILED");
  assert_claims samples crash ~replans_empty determinism_ok;
  write_json ~quick ~samples ~crash ~replans_empty ~determinism_ok;
  Printf.printf "wrote %s\n" (json_file ~quick)
