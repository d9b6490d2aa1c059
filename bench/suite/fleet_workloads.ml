(* The two fleet workloads: a scenario file installed on a multi-shard
   [Fleet] through [Scenario.install_fleet] and [Rollout.install], then
   driven by [Fleet.run].  The scenario is an open loop in simulated
   time: requests, drift and episodes fire at scheduled sim instants
   whatever the fleet's progress, so the generator is never late. *)

module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Cloud_rules = Cloudless_schema.Cloud_rules
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Rollout = Cloudless_controlplane.Rollout
module Breaker = Cloudless_deploy.Breaker
module Lock_manager = Cloudless_lock.Lock_manager
module Metrics = Cloudless_obs.Metrics

(* The provider's API budget: 500 writes/s (burst 5k) and 2500
   reads/s (burst 25k).  The scenario grammar has no key for it. *)
let provider ~seed =
  Cloud.create
    ~config:(Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:5_000. ~refill_rate:500.)
    ~read_limiter:(Rate_limiter.create ~capacity:25_000. ~refill_rate:2500.)
    ~seed ()

(* Simulated seconds between two operator checkpoints. *)
let checkpoint_every = 600.

(* The smoke size keeps a scenario's timeline (waves, episodes,
   rollouts) and shrinks its tenant count. *)
let shrink (scn : Scenario.t) ~by =
  {
    scn with
    Scenario.tenants = max 8 (scn.Scenario.tenants / by);
    hot_tenants = scn.Scenario.hot_tenants / by;
    calm_tenants = scn.Scenario.calm_tenants / by;
    drift_events = scn.Scenario.drift_events / by;
  }

type live = { fleet : Fleet.t ref; rollouts : Rollout.t list }

let sum_shards fleet f = List.fold_left (fun acc s -> acc + f s) 0 (Fleet.shards fleet)

let breaker_sum fleet f =
  sum_shards fleet (fun s -> match Shard.breaker s with Some b -> f b | None -> 0)

(* [checkpoint]: every [checkpoint_every] simulated seconds the operator
   reads the fleet's state digest and managed-resource count, an
   O(fleet) read.  A pass is one cycle: the phases of a scenario differ
   too much in work for per-phase walls to pool into one distribution. *)
let fleet_workload ~scn ~seed ~checkpoint : Pass.workload =
  let expected_managed =
    scn.Scenario.tenants * scn.Scenario.deployments_per_tenant * scn.Scenario.resources
  in
  let current = ref None in
  let install sp =
    let cloud = provider ~seed in
    let config = Scenario.service_config scn Shard.fleet_service in
    let fleet =
      ref (Fleet.create ~cloud ~trace:(Spans.lib_trace sp) ~shards:scn.Scenario.shards config)
    in
    ignore (Scenario.install_fleet scn fleet : Scenario.injection list ref);
    let rollouts = Rollout.install scn fleet in
    let rec operator at =
      if at < scn.Scenario.duration then
        Cloud.schedule cloud ~delay:checkpoint_every (fun () ->
            Spans.layer sp "controlplane.checkpoint" (fun () ->
                ignore (Fleet.state_digest !fleet : string);
                ignore (Fleet.managed_resource_count !fleet : int));
            operator (at +. checkpoint_every))
    in
    if checkpoint then operator checkpoint_every;
    current := Some { fleet; rollouts }
  in
  let pass ~audit sp =
    let live = match !current with Some l -> l | None -> failwith "fleet: no setup" in
    current := None;
    let fleet = !(live.fleet) in
    let t0 = Unix.gettimeofday () in
    Spans.with_op sp "fleet-run" (fun () ->
        Spans.layer sp "controlplane.drive" (fun () ->
            Fleet.run fleet ~until:scn.Scenario.duration));
    let wall = Unix.gettimeofday () -. t0 in
    let m = Fleet.metrics fleet in
    let c = Metrics.counter m in
    let pct name p = Option.value (Metrics.percentile m name p) ~default:0. in
    let gauge name = Option.value (Metrics.gauge m name) ~default:0. in
    let hist_sum name =
      match Json.member "sum" (Json.member name (Json.parse (Metrics.to_json m))) with
      | Json.Num v -> v
      | _ -> 0.
    in
    let requests = c "requests" and done_ = c "requests_done" in
    let ops = done_ + c "reconciles" + c "rollbacks_done" in
    let cloud = Fleet.cloud fleet in
    let grants, waits =
      List.fold_left
        (fun (g, w) s ->
          let g', w' = Lock_manager.stats (Shard.lock s) in
          (g + g', w + w'))
        (0, 0) (Fleet.shards fleet)
    in
    let _, w_throttled = Cloud.write_throttle_stats cloud
    and _, r_throttled = Cloud.read_throttle_stats cloud in
    let throttled = w_throttled + r_throttled in
    let api_calls = Cloud.api_call_count cloud in
    let violations = breaker_sum fleet Breaker.violations in
    let makespan =
      List.fold_left (fun acc (_, _, at) -> Float.max acc at) 0. (Fleet.completed_requests fleet)
    in
    let f = float_of_int in
    let ratio a b = if b = 0 then 0. else f a /. f b in
    {
      Pass.wall;
      ops;
      failed = requests - done_;
      cycles = [ wall ];
      fingerprint = Fleet.state_digest fleet;
      checks =
        [
          ("every admitted request completed", done_ = requests && requests > 0);
          ("fleet manages tenants x resources", Fleet.managed_resource_count fleet = expected_managed);
          ("every rollout converged", List.for_all Rollout.converged live.rollouts);
          ("no call through an open breaker", violations = 0);
        ]
        (* the orphan audit scans the whole activity log against every
           deployment: run on the warm-up and traced passes only *)
        @ if audit then [ ("no orphaned resources", Fleet.orphans fleet = []) ] else [];
      sim =
        Some
          {
            Pass.makespan;
            p50 = pct "request_latency" 50.;
            p99 = pct "request_latency" 99.;
            api_calls;
            sim_ops = ops;
          };
      counters =
        [
          ("controlplane.requests", f requests);
          ("controlplane.requests_done", f done_);
          ("controlplane.reconciles", f (c "reconciles"));
          ("controlplane.deferred", f (c "requests_deferred"));
          ("controlplane.work_failures", f (c "work_failures"));
          ("controlplane.queue_wait_p99_s", pct "request_queue_wait" 99.);
          ("controlplane.request_spans", f (Spans.lib_count sp ~name:"request"));
          ("controlplane.reconcile_spans", f (Spans.lib_count sp ~name:"reconcile"));
          ("controlplane.failed_ops_frac", ratio (requests - done_ + c "work_failures") (requests + c "reconciles"));
          ("lock.grants", f grants);
          ("lock.waits", f waits);
          ("lock.wait_ratio", ratio waits grants);
          ("sim.api_reads", f (c "api_reads"));
          ("sim.api_writes", f (c "api_writes"));
          ("sim.throttled", f throttled);
          ("sim.throttle_ratio", ratio throttled api_calls);
          ("sim.log_deliveries", gauge "log_deliveries");
          ("sim.episode_faults", f (Cloud.episode_fault_count cloud));
          ("drift.events", f (c "drift_events"));
          ("drift.cross_shard_routed", f (c "cross_shard_routed"));
          ("drift.repair_p50_s", pct "reconcile_latency" 50.);
          ("breaker.opened", f (c "breaker_opened"));
          ("breaker.fast_fails", f (breaker_sum fleet Breaker.rejections));
          ("breaker.parked", f (c "requests_parked" + c "reconciles_parked" + c "rollbacks_parked"));
          ("breaker.degraded_time_s", hist_sum "degraded_time");
          ("wave.submitted", f (List.fold_left (fun a r -> a + Rollout.submitted r) 0 live.rollouts));
          ("wave.gate_checks", f (List.fold_left (fun a r -> a + Rollout.gate_checks r) 0 live.rollouts));
          ("wave.mgmt_calls", f (List.fold_left (fun a r -> a + Rollout.mgmt_calls r) 0 live.rollouts));
          ("wave.rollbacks", f (List.fold_left (fun a r -> a + Rollout.rollbacks r) 0 live.rollouts));
          ( "wave.committed",
            f (List.fold_left (fun a r -> a + List.length (Rollout.committed_tenants r)) 0 live.rollouts) );
        ];
    }
  in
  {
    Pass.setup = install;
    run = (fun () -> pass ~audit:false Spans.off);
    replay = pass ~audit:true;
    audit = (fun () -> []);
  }
