(** Command handlers behind the [cloudless] binary.

    Each handler is a plain function returning a process exit code, so
    tests drive the exact code paths the binary ships: [bin/cloudless_cli.ml]
    is only cmdliner wiring around these.

    Exit-code convention:
    - [0] success (for [plan]: an empty diff)
    - [1] user/config error — bad HCL, a bad scenario key, failed
      validation, policy denial, corrupt state (cmdliner itself exits 124
      on an unknown flag)
    - [2] deploy failure — the plan executed but resources failed
      (for [plan]: a non-empty diff, mirroring `terraform plan -detailed-exitcode`)

    Every error renders through {!Diagnostic.to_string}: every failure
    of the engine's own is a {!Cloudless_error.Error}, and handlers wrap
    their bodies in {!Cloudless_error.protect}, so none escapes. *)

module Hcl = Cloudless_hcl
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Dag = Cloudless_graph.Dag
module Trace = Cloudless_obs.Trace

(** Where handler output goes; tests substitute buffers. *)
type io = { out : string -> unit; err : string -> unit }

let default_io = { out = print_string; err = prerr_string }
let outf io fmt = Printf.ksprintf io.out fmt
let errf io fmt = Printf.ksprintf io.err fmt

(* A deploy-stage diagnostic means the engine ran and resources
   failed; everything else is the user's configuration or input. *)
let exit_code_of_diag (d : Diagnostic.t) =
  match d.Diagnostic.stage with Diagnostic.Deploy -> 2 | _ -> 1

let protected io (f : unit -> int) : int =
  match Cloudless_error.protect f with
  | Ok code -> code
  | Error d ->
      errf io "%s\n" (Diagnostic.to_string d);
      exit_code_of_diag d

(* `--trace out.jsonl`: run [f] with a tracer whose spans stream to
   [path]; the sink is closed (and the file flushed) even on error. *)
let with_trace trace_path (f : Trace.t -> 'a) : 'a =
  match trace_path with
  | None -> f Trace.null
  | Some path ->
      let sink, close = Trace.jsonl_file_sink path in
      Fun.protect ~finally:close (fun () -> f (Trace.create sink))

type engine = Baseline | Cloudless

(* The presets as they are: the baseline refreshes every row (the
   Terraform behaviour it reproduces), the cloudless engine the plan's
   impact scope — [Executor.apply] decides which rows. *)
let engine_config = function
  | Baseline -> Executor.baseline_config
  | Cloudless -> Executor.cloudless_config

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

let fmt ?(io = default_io) ~file ~in_place () =
  protected io @@ fun () ->
  let cfg = Session.parse_config file in
  let formatted = Hcl.Config.to_string cfg in
  if in_place then Io_util.write_file file formatted else io.out formatted;
  0

let validate ?(io = default_io) ?(level = Validate.L_cloud) ~file ~state_path ()
    =
  protected io @@ fun () ->
  let state = Session.load_state state_path in
  let report =
    if Sys.is_directory file then
      Validate.validate_config ~level ~env:(Session.env_for state)
        (Session.parse_config file)
    else
      Validate.validate_source ~level ~env:(Session.env_for state) ~file
        (Io_util.read_file file)
  in
  List.iter
    (fun d -> outf io "%s\n" (Diagnostic.to_string d))
    report.Validate.diagnostics;
  let errors = Diagnostic.count_errors report.Validate.diagnostics in
  outf io "%d error(s), %d warning(s)\n" errors
    (List.length report.Validate.diagnostics - errors);
  if errors > 0 then 1 else 0

let graph ?(io = default_io) ~file () =
  protected io @@ fun () ->
  let cfg = Session.parse_config file in
  let instances = Session.expand State.empty cfg in
  io.out (Dag.to_dot (Dag.of_instances instances));
  0

let plan ?(io = default_io) ?trace_path ~file ~state_path () =
  protected io @@ fun () ->
  with_trace trace_path @@ fun trace ->
  Trace.with_span trace "plan-cmd" @@ fun () ->
  let state = Session.load_state state_path in
  let plan = Session.plan_against ~trace ~state file in
  io.out (Plan.to_string plan);
  if Plan.is_empty plan then 0 else 2

(* A journal next to the state file is what an apply that died left
   behind.  [apply] and [destroy] merge it into the recorded state
   before they plan: every operation whose outcome was journaled is
   trusted (no duplicate create), and intents with no recorded outcome
   are left to the fresh plan.  The merged state is written before the
   journal is deleted, so a crash during recovery re-runs the same
   (idempotent) replay.  A corrupt journal fails the command with the
   state and the journal untouched.  A journal with no entry is a run
   that stopped before its first one, and has nothing to merge. *)
let load_recovered io state_path =
  let recorded = Session.load_state state_path in
  match Session.load_journal state_path with
  | None -> recorded
  | Some [] ->
      Session.clear_journal state_path;
      recorded
  | Some entries ->
      let merged = Journal.replay recorded entries in
      let completed =
        List.length
          (List.filter
             (fun (s : Journal.op_status) ->
               match s.Journal.resolution with
               | Some o -> o.Journal.ok
               | None -> false)
             (Journal.analyze entries))
      in
      outf io
        "Resumed from journal: %d completed operation(s) recovered, %d \
         interrupted (re-planned).\n"
        completed
        (List.length (Journal.unresolved entries));
      Session.save_state state_path merged;
      Session.clear_journal state_path;
      merged

let apply ?(io = default_io) ?trace_path ?(seed = 42) ?(engine = Cloudless)
    ?cloud_config ?(journal_mode = Journal.Wal) ~file ~state_path () =
  protected io @@ fun () ->
  with_trace trace_path @@ fun trace ->
  Trace.with_span trace "apply-cmd" @@ fun () ->
  let recorded = load_recovered io state_path in
  let cloud, state =
    Session.cloud_from_state ~trace ?config:cloud_config recorded ~seed
  in
  let plan = Session.plan_against ~trace ~state file in
  if Plan.is_empty plan then begin
    io.out "No changes. Infrastructure up to date.\n";
    0
  end
  else begin
    io.out (Plan.to_string plan);
    let journal =
      Journal.create ~path:(Session.journal_path state_path) ~mode:journal_mode
        ()
    in
    let report =
      Executor.apply cloud ~config:(engine_config engine) ~state ~plan ~trace
        ~journal ()
    in
    outf io
      "\nApplied %d change(s) in %.0f simulated seconds (%d API calls, %d retries).\n"
      (List.length report.Executor.applied)
      report.Executor.makespan report.Executor.api_calls report.Executor.retries;
    List.iter
      (fun (f : Executor.failure) ->
        outf io "FAILED %s: %s\n"
          (Hcl.Addr.to_string f.Executor.faddr)
          f.Executor.reason)
      report.Executor.failed;
    List.iter
      (fun d -> errf io "%s\n" (Cloudless_error.Diagnostic.to_string d))
      report.Executor.diagnostics;
    Session.save_state state_path report.Executor.state;
    (* the run completed and its effects are in the state file: the
       journal has served its purpose *)
    Journal.close journal;
    Session.clear_journal state_path;
    outf io "State written to %s (%d resources).\n" state_path
      (State.size report.Executor.state);
    if report.Executor.failed <> [] then 2 else 0
  end

let destroy ?(io = default_io) ?trace_path ?(seed = 42) ~state_path () =
  protected io @@ fun () ->
  with_trace trace_path @@ fun trace ->
  Trace.with_span trace "destroy-cmd" @@ fun () ->
  let recorded = load_recovered io state_path in
  if State.size recorded = 0 then begin
    io.out "Nothing to destroy.\n";
    0
  end
  else begin
    let cloud, state = Session.cloud_from_state ~trace recorded ~seed in
    let plan = Plan.make ~trace ~state [] in
    let report =
      Executor.apply cloud ~config:Executor.cloudless_config ~state ~plan ~trace
        ()
    in
    outf io "Destroyed %d resource(s) in %.0f simulated seconds.\n"
      (List.length report.Executor.applied)
      report.Executor.makespan;
    Session.save_state state_path report.Executor.state;
    0
  end

let policy_check ?(io = default_io) ~file ~policies_path ~state_path () =
  protected io @@ fun () ->
  let state = Session.load_state state_path in
  let controller =
    Cloudless_policy.Controller.of_source ~file:policies_path
      (Io_util.read_file policies_path)
  in
  let plan = Session.plan_against ~state file in
  let obs = Cloudless_policy.Controller.standard_obs ~state ~plan () in
  let result =
    Cloudless_policy.Controller.tick controller
      ~phase:Cloudless_policy.Policy.On_plan ~obs ()
  in
  List.iter
    (fun d -> outf io "%s\n" (Cloudless_policy.Policy.decision_to_string d))
    result.Cloudless_policy.Controller.decisions;
  match result.Cloudless_policy.Controller.denied with
  | Some msg ->
      outf io "DENIED: %s\n" msg;
      1
  | None ->
      io.out "plan admitted by all policies\n";
      0

let import ?(io = default_io) ?(no_optimize = false) ~state_path () =
  protected io @@ fun () ->
  let recorded = Session.load_state state_path in
  if State.size recorded = 0 then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.State_io
      ~code:"empty-state" "state %s is empty; apply something first" state_path;
  let cloud, _ = Session.cloud_from_state recorded ~seed:42 in
  let naive = Cloudless_synth.Importer.import cloud () in
  let cfg =
    if no_optimize then naive
    else
      (Cloudless_synth.Refactor.optimize ~modules:false naive)
        .Cloudless_synth.Refactor.optimized
  in
  let metrics = Cloudless_synth.Quality.measure cfg in
  io.out (Hcl.Config.to_string cfg);
  errf io "-- %s\n" (Fmt.str "%a" Cloudless_synth.Quality.pp metrics);
  0

(* `cloudless serve`: run the multi-tenant control plane against a
   scenario file for its [duration] of simulated time, then print the
   service summary and (optionally) the metrics snapshot.  The scenario
   file is the one place the run is configured: shard count, admission
   bound and policy, chaos episodes, breakers and [wave =] rollouts are
   all its keys; [engine] picks the service preset. *)
let serve ?(io = default_io) ?trace_path ?(seed = 42) ?(engine = Cloudless)
    ?metrics_path ~scenario_path () =
  protected io @@ fun () ->
  with_trace trace_path @@ fun trace ->
  let module Cloud = Cloudless_sim.Cloud in
  let module Shard = Cloudless_controlplane.Shard in
  let module Fleet = Cloudless_controlplane.Fleet in
  let module Scenario = Cloudless_controlplane.Scenario in
  let module Rollout = Cloudless_controlplane.Rollout in
  let module Metrics = Cloudless_obs.Metrics in
  let scn = Scenario.load scenario_path in
  let cloud =
    Cloud.create
      ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed ()
  in
  Trace.set_sim_clock trace (fun () -> Cloud.now cloud);
  let name, preset =
    match engine with
    | Cloudless -> ("fleet", Shard.fleet_service)
    | Baseline -> ("baseline", Shard.baseline_service)
  in
  let config = Scenario.service_config scn preset in
  let fleet =
    ref (Fleet.create ~cloud ~trace ~shards:scn.Scenario.shards config)
  in
  let injections = Scenario.install_fleet scn fleet in
  let rollouts = Rollout.install scn fleet in
  Fleet.run !fleet ~until:scn.Scenario.duration;
  let fleet = !fleet in
  let m = Fleet.metrics fleet in
  let grants, waits =
    List.fold_left
      (fun (g, w) s ->
        let g', w' = Cloudless_lock.Lock_manager.stats (Shard.lock s) in
        (g + g', w + w'))
      (0, 0) (Fleet.shards fleet)
  in
  outf io
    "Service %s: %d tenant(s), %d deployment(s), %d resource(s) under \
     management after %.0f simulated seconds.\n"
    name scn.Scenario.tenants
    (List.length (Fleet.deployments fleet))
    (Fleet.managed_resource_count fleet)
    (Cloud.now cloud);
  let pct name p =
    match Metrics.percentile m name p with Some v -> v | None -> 0.
  in
  outf io
    "Requests: %d done (p50 %.1fs, p99 %.1fs); reconciles: %d; drift \
     events: %d (%d injected); policy ticks: %d.\n"
    (Metrics.counter m "requests_done")
    (pct "request_latency" 50.) (pct "request_latency" 99.)
    (Metrics.counter m "reconciles")
    (Metrics.counter m "drift_events")
    (List.length !injections)
    (Metrics.counter m "policy_ticks");
  outf io
    "API calls: %d (%d reads, %d writes); locks: %d grant(s), %d wait(s).\n"
    (Metrics.counter m "api_calls")
    (Metrics.counter m "api_reads")
    (Metrics.counter m "api_writes")
    grants waits;
  if scn.Scenario.episodes <> [] || scn.Scenario.breaker then begin
    let g name =
      match Metrics.gauge m name with Some v -> int_of_float v | None -> 0
    in
    outf io
      "Chaos: %d episode(s), %d episode fault(s); breaker: %d opened, %d \
       fast-fail(s), %d violation(s); parked: %d request(s), %d \
       reconcile(s); scans shed: %d.\n"
      (List.length scn.Scenario.episodes)
      (Cloud.episode_fault_count cloud)
      (Metrics.counter m "breaker_opened")
      (g "breaker_fast_fails") (g "breaker_violations")
      (Metrics.counter m "requests_parked")
      (Metrics.counter m "reconciles_parked")
      (Metrics.counter m "scans_shed")
  end;
  outf io
    "Fleet: %d shard(s); cross-shard drift routed: %d; rebalance moves: %d; \
     deferred: %d; rejected: %d; state digest %s.\n"
    (Fleet.shard_count fleet)
    (Metrics.counter m "cross_shard_routed")
    (Metrics.counter m "rebalance_moves")
    (Metrics.counter m "requests_deferred")
    (Metrics.counter m "requests_rejected")
    (Fleet.state_digest fleet);
  List.iter
    (fun r ->
      outf io
        "Rollout %s: %s; touched %d/%d tenant(s), committed %d; %d \
         request(s), %d rollback(s), %d gate check(s), %d mgmt call(s).\n"
        (Rollout.change r).Cloudless_wave.Change.cname
        (match Rollout.outcome r with
        | Some o -> Rollout.outcome_to_string o
        | None -> "still running")
        (List.length (Rollout.touched_tenants r))
        scn.Scenario.tenants
        (List.length (Rollout.committed_tenants r))
        (Rollout.submitted r) (Rollout.rollbacks r) (Rollout.gate_checks r)
        (Rollout.mgmt_calls r))
    rollouts;
  (match Fleet.orphans fleet with
  | [] -> ()
  | os ->
      outf io "WARNING: %d orphaned resource(s): %s\n" (List.length os)
        (String.concat ", " os));
  (match metrics_path with
  | Some path ->
      Metrics.write_json m ~path;
      outf io "Metrics snapshot written to %s.\n" path
  | None -> io.out (Metrics.to_json m));
  0

(* `cloudless rollout`: carry a bulk change (E18) across a scenario's
   tenant fleet in canary -> growing waves with a policy/health gate at
   every wave boundary.  The scenario provides the fleet shape (tenants,
   fleet size, shard count); its request/drift schedule is not
   installed — the run is: initial applies, then each change block of
   [file] launched in sequence.  Exit 0 when every rollout converged
   fleet-wide; exit 2 when a gate stopped one (the wave rolled back,
   later waves halted). *)
let rollout ?(io = default_io) ?trace_path ?(seed = 42) ?check_period ~file
    ~scenario_path () =
  protected io @@ fun () ->
  with_trace trace_path @@ fun trace ->
  let module Cloud = Cloudless_sim.Cloud in
  let module CShard = Cloudless_controlplane.Shard in
  let module Fleet = Cloudless_controlplane.Fleet in
  let module Scenario = Cloudless_controlplane.Scenario in
  let module Rollout = Cloudless_controlplane.Rollout in
  let module Change = Cloudless_wave.Change in
  let scn = Scenario.load scenario_path in
  let changes = Change.parse ~file (Io_util.read_file file) in
  if changes = [] then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Syntax
      ~code:"empty-change" "%s contains no change blocks" file;
  let cloud =
    Cloud.create
      ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed ()
  in
  Trace.set_sim_clock trace (fun () -> Cloud.now cloud);
  let config = Scenario.service_config scn CShard.fleet_service in
  let fleet =
    ref (Fleet.create ~cloud ~trace ~shards:scn.Scenario.shards config)
  in
  Scenario.bootstrap scn !fleet;
  (* Launch the changes spread over the horizon, after the initial
     applies settle. *)
  let duration = scn.Scenario.duration in
  let settle = Float.min 600. (duration /. 4.) in
  let stagger =
    (duration -. settle) /. float_of_int (List.length changes)
  in
  let drivers =
    List.mapi
      (fun i change ->
        let t = Rollout.create ?check_period ~change fleet () in
        Rollout.launch t ~at:(settle +. (float_of_int i *. stagger));
        t)
      changes
  in
  Fleet.run !fleet ~until:duration;
  let code = ref 0 in
  List.iter
    (fun r ->
      let c = Rollout.change r in
      outf io "change %S: canary %d, growth %d, %d gate(s)\n"
        c.Cloudless_wave.Change.cname c.Cloudless_wave.Change.canary
        c.Cloudless_wave.Change.growth
        (List.length c.Cloudless_wave.Change.gates);
      List.iter
        (fun (at, msg) -> outf io "  [%8.1fs] %s\n" at msg)
        (Rollout.events r);
      (match Rollout.rollback_latency r with
      | Some l -> outf io "  rollback latency: %.1fs\n" l
      | None -> ());
      outf io
        "  %s: touched %d/%d tenant(s), committed %d; %d request(s), %d \
         rollback(s), %d gate check(s), %d mgmt call(s)\n"
        (match Rollout.outcome r with
        | Some o -> Rollout.outcome_to_string o
        | None -> "still running at horizon")
        (List.length (Rollout.touched_tenants r))
        scn.Scenario.tenants
        (List.length (Rollout.committed_tenants r))
        (Rollout.submitted r) (Rollout.rollbacks r) (Rollout.gate_checks r)
        (Rollout.mgmt_calls r);
      if not (Rollout.converged r) then code := 2)
    drivers;
  !code

let examples =
  [
    ("web-tier", fun () -> Cloudless_workload.Workload.web_tier ());
    ("microservices", fun () -> Cloudless_workload.Workload.microservices ());
    ("data-pipeline", fun () -> Cloudless_workload.Workload.data_pipeline ());
    ("multi-region", fun () -> Cloudless_workload.Workload.multi_region ());
    ("multi-cloud", fun () -> Cloudless_workload.Workload.multi_cloud ());
    ( "figure2",
      fun () ->
        "data \"aws_region\" \"current\" {}\n\n\
         variable \"vmName\" {\n\
        \  type    = string\n\
        \  default = \"cloudless\"\n\
         }\n\n\
         resource \"aws_network_interface\" \"n1\" {\n\
        \  name     = \"example-nic\"\n\
        \  location = data.aws_region.current.name\n\
         }\n\n\
         resource \"aws_virtual_machine\" \"vm1\" {\n\
        \  name    = var.vmName\n\
        \  nic_ids = [aws_network_interface.n1.id]\n\
         }\n" );
  ]

let example ?(io = default_io) ~name () =
  protected io @@ fun () ->
  match List.assoc_opt name examples with
  | Some gen ->
      io.out (gen ());
      0
  | None ->
      Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
        ~code:"unknown-example" "unknown example %s (try: %s)" name
        (String.concat ", " (List.map fst examples))
