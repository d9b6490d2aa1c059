(* E17 (soak): chaos episodes + the resilient control plane.

   A 2-hour simulated soak: 64 tenants on a 4-shard fleet, a revision
   wave every 15 minutes, and a schedule of time-windowed fault
   episodes aimed at the waves — a global provider outage, an error
   storm and a throttle storm on aws_instance, two spot-termination
   waves, and a region quota cut that lands exactly while the spot
   replacements are being re-created.  Circuit breakers are on: writes
   that keep failing trip their (API kind, rtype) cell, the affected
   work parks on that cell and wakes when its cooldown ends or it
   closes, and unaffected tenants keep being served.  The bench
   asserts the E17 claims on its own output:

   - convergence after every episode: at each episode's deadline
     (window end + 600 s) the fleet manages exactly tenants*resources
     rows and nothing is still parked;
   - zero calls through an open breaker: every shard's violation
     tripwire reads 0, while rejections (fast-fails) are non-zero —
     the breaker actually carried load;
   - degraded mode is partial, not total: every calm tenant untouched
     by spot kills keeps its request p99 within 2x of the same
     scenario run without episodes (floored at 1 s);
   - a crash mid-outage resumes with zero orphans, zero duplicate
     creates, full management count, and a state digest byte-identical
     to an uncrashed run of the same scenario;
   - determinism: two identical chaos runs (same seed) export
     byte-identical metrics snapshots, PRNG-consuming error storms and
     all.

   Results land in BENCH_soak.json (BENCH_soak_quick.json with
   --quick, which shrinks the tenant count and shard fan-out but keeps
   the full 2-hour horizon and episode schedule). *)

open Bench_util
open Fleet_harness
module Breaker = Cloudless_deploy.Breaker

let exp = "e17"
let resources = 8
let duration = 7200.
let wave_interval = 900.
let converge_grace = 600.

let ep = Failure.episode

(* Each window straddles a request wave (waves fire at 0, 900, 1800,
   ...) so in-flight writes actually feel the fault; the quota cut
   overlaps the second spot wave so the replacement creates run into
   Quota_exceeded and must ride the breaker until the window lifts. *)
let episode_specs =
  [
    ep ~magnitude:1.0 ~start_:880. ~finish:1100. Failure.Outage;
    ep ~rtype:"aws_instance" ~magnitude:0.85 ~start_:1780. ~finish:2050.
      Failure.Error_storm;
    ep ~rtype:"aws_instance" ~magnitude:15. ~start_:2680. ~finish:2950.
      Failure.Throttle_storm;
    ep ~magnitude:6. ~start_:3700. ~finish:3701. Failure.Spot_termination;
    ep ~magnitude:4. ~start_:4490. ~finish:4491. Failure.Spot_termination;
    ep ~rtype:"aws_instance" ~magnitude:4. ~start_:4480. ~finish:4800.
      Failure.Quota_cut;
  ]

let episode_kinds =
  List.length
    (List.sort_uniq compare
       (List.map (fun (e : Failure.episode) -> e.Failure.ekind) episode_specs))

let soak_scenario ?(episodes = episode_specs) ~tenants ~shards () =
  {
    Scenario.default with
    Scenario.tenants;
    shards;
    deployments_per_tenant = 1;
    resources;
    requests_per_tenant = 8;
    request_interval = wave_interval;
    drift_events = 0;
    drift_period = 60.;
    policy_period = 0.;
    duration;
    episodes;
    breaker = true;
    calm_tenants = max 2 (tenants / 8);
  }

let sum_shards f fleet =
  List.fold_left (fun acc s -> acc + f s) 0 (Fleet.shards fleet)

let breaker_sum f fleet =
  sum_shards
    (fun s -> match Shard.breaker s with Some b -> f b | None -> 0)
    fleet

type checkpoint = {
  ckind : string;
  at : float;
  managed : int;
  cexpected : int;
  parked : int;
  copen_cells : int;
}

(* Run a scenario on the fleet, capturing a convergence checkpoint at
   every episode's deadline (window end + grace). *)
let run_soak ~scn ~seed =
  let checkpoints = ref [] in
  let expected = scn.Scenario.tenants * scn.Scenario.resources in
  let install fleet =
    List.iter
      (fun (e : Failure.episode) ->
        let deadline = e.Failure.efinish +. converge_grace in
        Cloud.schedule (Fleet.cloud !fleet) ~delay:deadline (fun () ->
            let f = !fleet in
            checkpoints :=
              {
                ckind = Failure.episode_kind_to_string e.Failure.ekind;
                at = deadline;
                managed = Fleet.managed_resource_count f;
                cexpected = expected;
                parked = sum_shards Shard.parked_work f;
                copen_cells = breaker_sum (fun b -> Breaker.open_cells b) f;
              }
              :: !checkpoints))
      scn.Scenario.episodes
  in
  let r = run ~install ~seed scn in
  (r, List.rev !checkpoints)

(* --- main soak leg -------------------------------------------------- *)

type soak_result = {
  tenants : int;
  shards : int;
  requests_done : int;
  requests_expected : int;
  requests_parked : int;
  reconciles_parked : int;
  episode_faults : int;
  breaker_opened : int;
  fast_fails : int;
  violations : int;
  degraded_entries : int;
  spot_injected : int;
  spot_detected : int;
  checkpoints : checkpoint list;
  calm_p99 : float;
  unaffected : (string * float) list;  (** (tenant, p99) per unaffected *)
}

let run_soak_leg ~tenants ~shards ~seed =
  let scn = soak_scenario ~tenants ~shards () in
  let r, checkpoints = run_soak ~scn ~seed in
  claim exp (not r.crashed) "unexpected crash in soak leg";
  let fleet = !(r.fleet) in
  let m = Fleet.metrics fleet in
  let detections = Fleet.drift_detections fleet in
  let spot_detected =
    List.length
      (List.filter
         (fun inj -> detected_at detections inj <> None)
         r.injections)
  in
  (* Calm baseline: the same fleet and load with the episode schedule
     stripped (breakers still armed, so the config is identical). *)
  let calm = run ~seed (soak_scenario ~episodes:[] ~tenants ~shards ()) in
  let calm_p99 =
    match Metrics.percentile (Fleet.metrics !(calm.fleet)) "request_latency" 99. with
    | Some v -> v
    | None -> failwith "e17: calm leg recorded no request latency"
  in
  (* Unaffected = calm-revision tenants whose instances no spot wave
     touched and whose requests never parked. *)
  let spot_tenants =
    List.sort_uniq String.compare
      (List.map (fun (i : Scenario.injection) -> i.Scenario.itenant) r.injections)
  in
  let unaffected =
    List.filter_map
      (fun ti ->
        let tenant = Printf.sprintf "tenant%d" ti in
        if
          List.mem tenant spot_tenants
          || Metrics.counter m ("requests_parked." ^ tenant) > 0
        then None
        else
          match Metrics.percentile m ("request_latency." ^ tenant) 99. with
          | Some p -> Some (tenant, p)
          | None -> None)
      (List.init scn.Scenario.calm_tenants (fun i -> tenants - 1 - i))
  in
  {
    tenants;
    shards;
    requests_done = Metrics.counter m "requests_done";
    requests_expected = tenants * scn.Scenario.requests_per_tenant;
    requests_parked = Metrics.counter m "requests_parked";
    reconciles_parked = Metrics.counter m "reconciles_parked";
    episode_faults = Cloud.episode_fault_count (Fleet.cloud fleet);
    breaker_opened = Metrics.counter m "breaker_opened";
    fast_fails = breaker_sum (fun b -> Breaker.rejections b) fleet;
    violations = breaker_sum (fun b -> Breaker.violations b) fleet;
    degraded_entries = Metrics.counter m "degraded_entries";
    spot_injected = List.length r.injections;
    spot_detected;
    checkpoints;
    calm_p99;
    unaffected;
  }

(* --- crash leg: die mid-outage, resume, converge ------------------- *)

(* The initial create wave starts at t=0 and the outage opens at t=2,
   so the crash (after write 48) lands inside the window, with the
   breaker already carrying the storm.  No spot waves here, so
   engine creates minus managed rows = duplicated creates. *)
let crash_scenario =
  {
    (soak_scenario
       ~episodes:[ ep ~magnitude:1.0 ~start_:2. ~finish:300. Failure.Outage ]
       ~tenants:16 ~shards:2 ())
    with
    Scenario.requests_per_tenant = 1;
    duration = 900.;
    calm_tenants = 0;
  }

(* --- determinism leg ----------------------------------------------- *)

let determinism_scenario =
  {
    (soak_scenario
       ~episodes:
         [
           ep ~magnitude:1.0 ~start_:50. ~finish:150. Failure.Outage;
           ep ~rtype:"aws_instance" ~magnitude:0.7 ~start_:280. ~finish:400.
             Failure.Error_storm;
           ep ~magnitude:2. ~start_:600. ~finish:601. Failure.Spot_termination;
         ]
       ~tenants:8 ~shards:2 ())
    with
    Scenario.requests_per_tenant = 2;
    request_interval = 300.;
    duration = 1200.;
  }

(* --- JSON ----------------------------------------------------------- *)

let json_file ~quick =
  if quick then "BENCH_soak_quick.json" else "BENCH_soak.json"

let json_of_checkpoint c =
  Printf.sprintf
    "    {\"episode\": \"%s\", \"at\": %.0f, \"managed\": %d, \
     \"expected\": %d, \"parked\": %d, \"open_cells\": %d}"
    c.ckind c.at c.managed c.cexpected c.parked c.copen_cells

let write_json ~quick ~(soak : soak_result) ~(crash : crash) ~determinism_ok =
  let worst_unaffected =
    List.fold_left (fun acc (_, p) -> Float.max acc p) 0. soak.unaffected
  in
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e17_soak\",\n\
    \  \"quick\": %b,\n\
    \  \"tenants\": %d,\n\
    \  \"shards\": %d,\n\
    \  \"resources_per_tenant\": %d,\n\
    \  \"duration\": %.0f,\n\
    \  \"episodes\": %d,\n\
    \  \"episode_kinds\": %d,\n\
    \  \"episode_faults\": %d,\n\
    \  \"requests_done\": %d,\n\
    \  \"requests_expected\": %d,\n\
    \  \"requests_parked\": %d,\n\
    \  \"reconciles_parked\": %d,\n\
    \  \"degraded_entries\": %d,\n\
    \  \"breaker\": {\"opened\": %d, \"fast_fails\": %d, \"violations\": %d},\n\
    \  \"spot\": {\"injected\": %d, \"detected\": %d},\n\
    \  \"checkpoints\": [\n%s\n  ],\n\
    \  \"unaffected\": {\"calm_p99\": %.2f, \"tenants\": %d, \
     \"worst_p99\": %.2f},\n\
    \  \"crash\": {\"tenants\": %d, \"shards\": 2, \"crash_after\": %d, \
     \"orphans\": %d, \"dup_creates\": %d, \"managed\": %d, \
     \"expected_managed\": %d, \"digest_matches_uncrashed\": %b},\n\
    \  \"summary\": {\"converged_after_every_episode\": true, \
     \"zero_open_breaker_calls\": %b, \"unaffected_p99_ok\": true, \
     \"determinism_ok\": %b}\n\
     }\n"
    quick soak.tenants soak.shards resources duration
    (List.length episode_specs) episode_kinds soak.episode_faults
    soak.requests_done soak.requests_expected soak.requests_parked
    soak.reconciles_parked soak.degraded_entries soak.breaker_opened
    soak.fast_fails soak.violations soak.spot_injected soak.spot_detected
    (String.concat ",\n" (List.map json_of_checkpoint soak.checkpoints))
    soak.calm_p99
    (List.length soak.unaffected)
    worst_unaffected crash_scenario.Scenario.tenants crash.crash_after
    crash.orphans crash.dup_creates crash.managed crash.expected_managed
    crash.digest_matches_uncrashed (soak.violations = 0) determinism_ok;
  close_out oc

(* --- assertions ----------------------------------------------------- *)

let assert_claims (soak : soak_result) crash determinism_ok =
  claim exp
    (soak.requests_done = soak.requests_expected)
    "%d/%d requests completed" soak.requests_done soak.requests_expected;
  claim exp (soak.episode_faults <> 0) "episodes injected no faults";
  claim exp (soak.breaker_opened <> 0) "no breaker ever opened";
  claim exp (soak.fast_fails <> 0) "breaker never fast-failed a call";
  claim exp (soak.violations = 0) "%d call(s) issued through an open breaker"
    soak.violations;
  claim exp
    (soak.requests_parked <> 0 || soak.reconciles_parked <> 0)
    "degraded mode never parked any work";
  claim exp (soak.degraded_entries <> 0) "fleet never entered degraded mode";
  claim exp
    (soak.spot_detected = soak.spot_injected)
    "%d/%d spot kills detected" soak.spot_detected soak.spot_injected;
  List.iter
    (fun (c : checkpoint) ->
      claim exp (c.managed = c.cexpected)
        "not converged %.0fs after %s episode: %d/%d managed" c.at c.ckind
        c.managed c.cexpected;
      claim exp (c.parked = 0) "%d unit(s) still parked %.0fs after %s episode"
        c.parked c.at c.ckind)
    soak.checkpoints;
  claim exp (soak.unaffected <> [])
    "no unaffected tenant survived the episode schedule";
  let bound = 2. *. Float.max 1. soak.calm_p99 in
  List.iter
    (fun (tenant, p99) ->
      claim exp (p99 <= bound)
        "unaffected %s p99 %.1fs exceeds 2x calm baseline %.1fs" tenant p99
        soak.calm_p99)
    soak.unaffected;
  check_crash ~exp crash;
  claim exp determinism_ok "chaos metrics snapshots not byte-identical"

(* --- driver --------------------------------------------------------- *)

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E17: chaos soak%s" (if quick then " (quick)" else ""));
  let seed = 42 in
  let tenants = if quick then 16 else 64 in
  let shards = if quick then 2 else 4 in
  let soak = run_soak_leg ~tenants ~shards ~seed in
  let widths = [ 16; 7; 9; 9; 7; 7 ] in
  row widths [ "episode"; "t"; "managed"; "expected"; "parked"; "open" ];
  hline widths;
  List.iter
    (fun c ->
      row widths
        [
          c.ckind;
          Printf.sprintf "%.0f" c.at;
          string_of_int c.managed;
          string_of_int c.cexpected;
          string_of_int c.parked;
          string_of_int c.copen_cells;
        ])
    soak.checkpoints;
  Printf.printf
    "requests %d/%d done; parked %d request(s) + %d reconcile(s); episode \
     faults %d; breaker opened %d, fast-fails %d, violations %d\n"
    soak.requests_done soak.requests_expected soak.requests_parked
    soak.reconciles_parked soak.episode_faults soak.breaker_opened
    soak.fast_fails soak.violations;
  Printf.printf
    "unaffected tenants: %d (calm p99 %.1fs, worst unaffected p99 %.1fs)\n"
    (List.length soak.unaffected)
    soak.calm_p99
    (List.fold_left (fun a (_, p) -> Float.max a p) 0. soak.unaffected);
  let crash = scenario_crash_leg ~exp ~k:48 ~seed crash_scenario in
  Printf.printf
    "crash leg (16 tenants, 2 shards, crash after write %d, mid-outage): \
     orphans=%d dup_creates=%d managed=%d/%d digest_match=%b\n"
    crash.crash_after crash.orphans crash.dup_creates crash.managed
    crash.expected_managed crash.digest_matches_uncrashed;
  let determinism_ok = deterministic ~seed determinism_scenario in
  Printf.printf "chaos determinism: %s\n"
    (if determinism_ok then "ok" else "FAILED");
  assert_claims soak crash determinism_ok;
  write_json ~quick ~soak ~crash ~determinism_ok;
  Printf.printf "wrote %s\n" (json_file ~quick)
