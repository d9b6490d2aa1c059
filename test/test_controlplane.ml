(* Control-plane service tests on a one-shard fleet: end-to-end
   scenario smoke, the lock admission properties the paper's
   multi-tenancy claim rests on (disjoint tenants never wait,
   conflicting work serializes in queue order), a golden drift-event ->
   scoped-reconcile trace, crash resume with zero orphans/duplicates,
   a request plan reused only against the state it was made for, the
   plan walk order pinned under both of the walker's drivers, and the
   failure paths of a unit of work (a typed error ends the unit on its
   own span, any other exception escapes, a failed repair counts). *)

module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Lock_manager = Cloudless_lock.Lock_manager
module Breaker = Cloudless_deploy.Breaker
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics
module Cloud_rules = Cloudless_schema.Cloud_rules
module Addr = Cloudless_hcl.Addr
module Plan = Cloudless_plan.Plan
module Journal = Cloudless_state.Journal
module Walker = Cloudless_deploy.Walker
module Executor = Cloudless_deploy.Executor

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
                ((Cloud.attrs live)
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

(* ------------------------------------------------------------------ *)
(* Plan reuse across re-admissions                                     *)
(* ------------------------------------------------------------------ *)

(* A hot-tenant burst of one source, back to back, into an outage on
   aws_instance with the breaker on.  The first request creates the
   network rows, trips the instance cell and parks; the second is
   granted at once against that partial state and must plan only the
   missing instances, not reuse the first request's all-creates plan
   (which would mint duplicate network rows and orphan the originals).
   Whichever request finishes last plans against the other's result
   and writes nothing. *)
let test_plan_memo_keyed_by_state () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  Cloud.set_episodes cloud
    [
      Failure.episode ~rtype:"aws_instance" ~start_:0. ~finish:200.
        Failure.Outage;
    ];
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let config =
    { Shard.fleet_service with Shard.breaker = Some Breaker.default_config }
  in
  let cp = Fleet.create ~cloud ~trace ~shards:1 config in
  let src =
    Scenario.fleet_src { Scenario.default with Scenario.resources = 8 } ~wave:0
  in
  let dep = Fleet.add_deployment cp ~tenant:"hot" ~dname:"d0" ~src in
  ignore (submit cp dep ~src);
  ignore (submit cp dep ~src);
  let partial = ref 0 in
  Cloud.schedule cloud ~delay:100. (fun () ->
      partial := State.size dep.Shard.state);
  Fleet.run cp ~until:1500.;
  check bool_ "mid-outage state is partial" true (!partial > 0 && !partial < 8);
  let m = Fleet.metrics cp in
  check bool_ "both requests parked" true
    (Metrics.counter m "requests_parked" >= 2);
  check int_ "both requests done" 2 (Metrics.counter m "requests_done");
  check bool_ "no orphans" true (Fleet.orphans cp = []);
  check int_ "exact deployment, no duplicates" 8
    (Fleet.managed_resource_count cp);
  let last_rid =
    match List.rev (Fleet.completed_requests cp) with
    | (_, rid, _) :: _ -> string_of_int rid
    | [] -> Alcotest.fail "no request completed"
  in
  match
    List.find_opt
      (fun (s : Trace.span) ->
        s.Trace.name = "request" && List.assoc_opt "rid" s.Trace.meta = Some last_rid)
      (spans ())
  with
  | Some s ->
      check int_ "the last request plans against the other's result" 0
        (List.assoc "writes" (Trace.counters s))
  | None -> Alcotest.fail "no span for the last request"

(* ------------------------------------------------------------------ *)
(* Plan walk order                                                     *)
(* ------------------------------------------------------------------ *)

let applier_v1 =
  {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}

resource "aws_subnet" "edge" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
  region     = "us-east-1"
  lifecycle {
    create_before_destroy = true
  }
}

resource "aws_security_group" "old" {
  name   = "old-sg"
  vpc_id = aws_vpc.main.id
  region = "us-east-1"
}

resource "aws_security_group_rule" "old" {
  security_group_id = aws_security_group.old.id
  type              = "ingress"
  from_port         = 22
  to_port           = 22
  protocol          = "tcp"
  cidr_blocks       = ["0.0.0.0/0"]
  region            = "us-east-1"
}
|}

(* v1 -> v2: a diamond of creates (hub <- left, right <- tip), a
   create-before-destroy replace of the subnet the tip lands in, and a
   delete chain (the old rule goes before the group it belongs to). *)
let applier_v2 =
  {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}

resource "aws_subnet" "edge" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.2.0/24"
  region     = "us-east-1"
  lifecycle {
    create_before_destroy = true
  }
}

resource "aws_security_group" "hub" {
  name   = "hub-sg"
  vpc_id = aws_vpc.main.id
  region = "us-east-1"
}

resource "aws_security_group_rule" "right" {
  security_group_id = aws_security_group.hub.id
  type              = "ingress"
  from_port         = 443
  to_port           = 443
  protocol          = "tcp"
  cidr_blocks       = ["0.0.0.0/0"]
  region            = "us-east-1"
}

resource "aws_security_group_rule" "left" {
  security_group_id = aws_security_group.hub.id
  type              = "ingress"
  from_port         = 80
  to_port           = 80
  protocol          = "tcp"
  cidr_blocks       = ["0.0.0.0/0"]
  region            = "us-east-1"
}

resource "aws_instance" "tip" {
  ami                    = "ami-0abcd1234"
  instance_type          = "t3.small"
  subnet_id              = aws_subnet.edge.id
  vpc_security_group_ids = [aws_security_group.hub.id]
  region                 = "us-east-1"
  depends_on             = [aws_security_group_rule.left, aws_security_group_rule.right]
}
|}

(* The journal's intents as "op kind addr". *)
let intent_lines journal =
  List.filter_map
    (function
      | Journal.Intent i ->
          Some
            (Printf.sprintf "%d %s %s" i.Journal.op
               (Journal.op_kind_to_string i.Journal.kind)
               (Addr.to_string i.Journal.iaddr))
      | _ -> None)
    (Journal.entries journal)

(* Walk [plan] against [state] on [cloud] the way a shard does —
   [Walker.apply] with the shard's FIFO inputs, stepping the cloud
   until the walk reports.  Returns the outcome and the intents. *)
let walk_plan cloud ~parallelism ~state plan =
  let journal = Journal.create () in
  let result = ref None in
  Walker.apply cloud
    ~config:
      { Executor.baseline_config with Executor.name = "cp/golden/d0"; parallelism }
    ~state ~graph:(Plan.exec_graph plan) ~journal
    ~gate:(fun () -> ()) ~alive:(fun () -> true) ~count_api:(fun _ -> ())
    ~on_done:(fun o -> result := Some o)
    ();
  while !result = None && Cloud.step cloud do () done;
  match !result with
  | Some o -> (o, intent_lines journal)
  | None -> Alcotest.fail "walk never reported"

(* [src]'s plan through [walk_plan].  The expected orders below were
   recorded from the [Addr]-keyed [Dag] walk the flat-array walk
   replaced, so a change to pick order or tie-breaking fails here. *)
let run_applier cloud ~parallelism ~state src =
  walk_plan cloud ~parallelism ~state (Plan.make ~state (Shard.expand ~state src))

(* The same plans through the run-to-completion driver. *)
let run_executor cloud ~parallelism ~state src =
  let plan = Plan.make ~state (Shard.expand ~state src) in
  let journal = Journal.create () in
  let config =
    { Executor.baseline_config with parallelism; refresh = Executor.Refresh_none }
  in
  let r = Executor.apply cloud ~config ~state ~plan ~journal () in
  (r, intent_lines journal)

let test_applier_golden_order () =
  let addrs l = List.map Addr.to_string l in
  let go parallelism =
    let cloud = fresh_cloud () in
    let o1, _ = run_applier cloud ~parallelism ~state:State.empty applier_v1 in
    let o2, intents =
      run_applier cloud ~parallelism ~state:o1.Walker.astate applier_v2
    in
    check int_ "v1: nothing failed" 0 (List.length o1.Walker.failed);
    check int_ "v2: nothing failed" 0 (List.length o2.Walker.failed);
    check int_ "v2: nothing skipped" 0 (List.length o2.Walker.skipped);
    (* a walk that writes nothing hands back its input state itself:
       the identity the shard's plan memo keys on *)
    let o3, _ =
      walk_plan cloud ~parallelism ~state:o2.Walker.astate
        { Plan.changes = []; default_region = "us-east-1" }
    in
    check bool_ "empty walk: the input state itself" true
      (o3.Walker.astate == o2.Walker.astate);
    (* the executor drives the same walk over the same plans *)
    let cloud = fresh_cloud () in
    let r1, _ = run_executor cloud ~parallelism ~state:State.empty applier_v1 in
    let r2, executor_intents =
      run_executor cloud ~parallelism ~state:r1.Executor.state applier_v2
    in
    let strings = Alcotest.(list string) in
    check strings "executor: same intents" intents executor_intents;
    check strings "executor: same applied order" (addrs o2.Walker.applied)
      (addrs r2.Executor.applied);
    check string_ "executor: same state"
      (State.to_string o2.Walker.astate)
      (State.to_string r2.Executor.state);
    (intents, addrs o2.Walker.applied)
  in
  let strings = Alcotest.(list string) in
  (* one change in flight: the intents are the pick order itself *)
  let intents, applied = go (Some 1) in
  check strings "serial: intent order"
    [
      "1 delete aws_security_group_rule.old";
      "2 create aws_subnet.edge";
      "3 delete aws_subnet.edge";
      "4 create aws_security_group.hub";
      "5 delete aws_security_group.old";
      "6 create aws_security_group_rule.left";
      "7 create aws_security_group_rule.right";
      "8 create aws_instance.tip";
    ]
    intents;
  check strings "serial: applied"
    [
      "aws_security_group_rule.old";
      "aws_subnet.edge";
      "aws_security_group.hub";
      "aws_security_group.old";
      "aws_security_group_rule.left";
      "aws_security_group_rule.right";
      "aws_instance.tip";
    ]
    applied;
  (* unbounded: each ready wave issues in pick order, completions
     follow the simulated latencies *)
  let intents, applied = go None in
  check strings "unbounded: intent order"
    [
      "1 delete aws_security_group_rule.old";
      "2 create aws_subnet.edge";
      "3 create aws_security_group.hub";
      "4 delete aws_security_group.old";
      "5 create aws_security_group_rule.left";
      "6 create aws_security_group_rule.right";
      "7 delete aws_subnet.edge";
      "8 create aws_instance.tip";
    ]
    intents;
  check strings "unbounded: applied"
    [
      "aws_security_group_rule.old";
      "aws_security_group.hub";
      "aws_security_group.old";
      "aws_security_group_rule.right";
      "aws_security_group_rule.left";
      "aws_subnet.edge";
      "aws_instance.tip";
    ]
    applied

(* ------------------------------------------------------------------ *)
(* Failure paths                                                       *)
(* ------------------------------------------------------------------ *)

(* A unit of work survives only typed errors: anything else is a bug
   and must reach the caller.  The rollback is granted at once, so the
   fleet call that enqueues it is the one that raises. *)
let test_untyped_error_escapes () =
  let cp = make_cp () in
  let src =
    Scenario.fleet_src { Scenario.default with Scenario.resources = 4 } ~wave:0
  in
  let dep = Fleet.add_deployment cp ~tenant:"acme" ~dname:"prod" ~src in
  match
    Fleet.submit_rollback cp dep ~label:"wave:bug:0"
      ~plan_of:(fun () -> raise Not_found)
      ~notify:(fun _ -> ())
      ()
  with
  | () -> Alcotest.fail "a Not_found inside a unit of work was swallowed"
  | exception Not_found -> ()

(* A request whose source does not parse fails alone: it counts once,
   leaves the deployment's state as it was, carries the diagnostic on
   its own span, and the next request on the deployment completes. *)
let test_typed_error_on_span () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let cp = Fleet.create ~cloud ~trace ~shards:1 Shard.fleet_service in
  let scn = { Scenario.default with Scenario.resources = 4 } in
  let dep =
    Fleet.add_deployment cp ~tenant:"acme" ~dname:"prod"
      ~src:(Scenario.fleet_src scn ~wave:0)
  in
  ignore (submit cp dep ~src:(Scenario.fleet_src scn ~wave:0));
  let shard = List.hd (Fleet.shards cp) in
  let kept = ref false and idle = ref (-1) in
  Cloud.schedule cloud ~delay:300. (fun () ->
      let before = dep.Shard.state in
      ignore (submit cp dep ~src:"resource \"aws_vpc\" \"x\" {");
      kept := dep.Shard.state == before;
      idle := Shard.tenant_pending shard "acme";
      ignore (submit cp dep ~src:(Scenario.fleet_src scn ~wave:1)));
  Fleet.run cp ~until:1200.;
  let m = Fleet.metrics cp in
  check int_ "one failed unit" 1 (Metrics.counter m "work_failures");
  check bool_ "state left as it was" true !kept;
  check int_ "nothing pending after the failure" 0 !idle;
  check int_ "the next request completes" 2 (Metrics.counter m "requests_done");
  let errors =
    List.filter_map
      (fun (s : Trace.span) ->
        match List.assoc_opt "error" s.Trace.meta with
        | Some e -> Some (s.Trace.name, e)
        | None -> None)
      (spans ())
  in
  match errors with
  | [ ("request", e) ] ->
      let prefix = "error[syntax/parse-error]" in
      check string_ "diagnostic on the request span" prefix
        (String.sub e 0 (min (String.length e) (String.length prefix)))
  | l ->
      Alcotest.failf "expected one request span with an error, got %d"
        (List.length l)

(* A reconcile whose repair write fails counts in work_failures like a
   failed request: no breaker, so the outage fails the write after its
   retries instead of parking it. *)
let test_failed_reconcile_counts () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  Cloud.set_episodes cloud
    [
      Failure.episode ~rtype:"aws_instance" ~start_:250. ~finish:50000.
        Failure.Outage;
    ];
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let cp = Fleet.create ~cloud ~trace ~shards:1 Shard.fleet_service in
  let src =
    Scenario.fleet_src { Scenario.default with Scenario.resources = 12 } ~wave:0
  in
  let dep = Fleet.add_deployment cp ~tenant:"acme" ~dname:"prod" ~src in
  ignore (submit cp dep ~src);
  Cloud.schedule cloud ~delay:300. (fun () ->
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
  Fleet.run cp ~until:60000.;
  let m = Fleet.metrics cp in
  check int_ "one reconcile" 1 (Metrics.counter m "reconciles");
  check int_ "the failed repair counts" 1 (Metrics.counter m "work_failures");
  match
    List.filter (fun (s : Trace.span) -> s.Trace.name = "reconcile") (spans ())
  with
  | [ s ] ->
      check bool_ "reconcile span reports the failed change" true
        (Trace.counter s "failed" > 0)
  | l -> Alcotest.failf "expected one reconcile span, got %d" (List.length l)

(* A failed request leaves the deployment on the revision it was granted
   with: a later drift reconcile plans that revision and repairs the
   drift instead of failing on the bad text. *)
let test_failed_request_keeps_revision () =
  let cloud = fresh_cloud () in
  let cp = Fleet.create ~cloud ~shards:1 Shard.fleet_service in
  let src =
    Scenario.fleet_src { Scenario.default with Scenario.resources = 12 } ~wave:0
  in
  let dep = Fleet.add_deployment cp ~tenant:"acme" ~dname:"prod" ~src in
  ignore (submit cp dep ~src);
  Cloud.schedule cloud ~delay:300. (fun () ->
      ignore (submit cp dep ~src:"resource \"aws_vpc\" \"x\" {"));
  let drifted = ref None in
  Cloud.schedule cloud ~delay:400. (fun () ->
      let row =
        List.find
          (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
          (State.resources dep.Shard.state)
      in
      drifted := Some row.State.addr;
      match
        Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:row.State.cloud_id
          ~attr:"instance_type"
          ~value:(Cloudless_hcl.Value.Vstring "t2.nano")
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "oob mutation failed");
  Fleet.run cp ~until:3000.;
  let m = Fleet.metrics cp in
  check int_ "only the bad request fails" 1 (Metrics.counter m "work_failures");
  check int_ "the drift is repaired" 1 (Metrics.counter m "reconciles");
  check string_ "the granted revision is restored" src dep.Shard.config_src;
  let addr = Option.get !drifted in
  match State.find_opt dep.Shard.state addr with
  | Some r ->
      check string_ "drifted attribute back at its configured value"
        "t3.small"
        (Cloudless_hcl.Value.to_string
           (Cloudless_hcl.Value.Smap.find "instance_type" (State.attrs r)))
  | None -> Alcotest.failf "%s left the state" (Addr.to_string addr)

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
        Alcotest.test_case "plan memo keyed by state" `Quick
          test_plan_memo_keyed_by_state;
        Alcotest.test_case "applier golden walk order" `Quick
          test_applier_golden_order;
      ] );
    ("controlplane.admission", [ qtest prop_disjoint_no_wait; qtest prop_conflicting_fifo ]);
    ( "controlplane.failures",
      [
        Alcotest.test_case "untyped error escapes" `Quick
          test_untyped_error_escapes;
        Alcotest.test_case "typed error on its span" `Quick
          test_typed_error_on_span;
        Alcotest.test_case "failed reconcile counts" `Quick
          test_failed_reconcile_counts;
        Alcotest.test_case "failed request keeps the revision" `Quick
          test_failed_request_keeps_revision;
      ] );
  ]
