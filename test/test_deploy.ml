(* End-to-end deployment tests: expand -> plan -> apply against the
   simulated cloud, for both the baseline and cloudless engines. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Dag = Cloudless_graph.Dag
module Cloud_rules = Cloudless_schema.Cloud_rules
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let data_resolver ~rtype ~name ~args:_ =
  match (rtype, name) with
  | "aws_region", _ -> Some (Smap.singleton "name" (Value.Vstring "us-east-1"))
  | _ -> None

let env = { Eval.default_env with Eval.data_resolver }

let expand_src src =
  (Eval.expand ~env (Config.parse ~file:"test.tf" src)).Eval.instances

let fresh_cloud ?(seed = 42) ?config () =
  let config =
    match config with
    | Some c -> c
    | None -> Cloud_rules.config_with_checks ()
  in
  Cloud.create ~config ~seed ()

let deploy ?(engine = Executor.baseline_config) ?(state = State.empty) cloud src =
  let instances = expand_src src in
  let plan = Plan.make ~state instances in
  Executor.apply cloud ~config:engine ~state ~plan ()

let web_tier =
  {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "s" {
  count      = 2
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, count.index)
  region     = "us-east-1"
}
resource "aws_instance" "web" {
  count         = 2
  ami           = "ami-123"
  instance_type = "t3.small"
  subnet_id     = aws_subnet.s[count.index].id
  region        = "us-east-1"
}
|}

let test_deploy_web_tier () =
  let cloud = fresh_cloud () in
  let report = deploy cloud web_tier in
  check bool_ "no failures" true (Executor.succeeded report);
  check int_ "5 applied" 5 (List.length report.Executor.applied);
  check int_ "5 in state" 5 (State.size report.Executor.state);
  check int_ "5 in cloud" 5 (Cloud.resource_count cloud);
  (* subnet's vpc_id must hold the real cloud id, not an unknown *)
  let subnet =
    Option.get
      (State.find_opt report.Executor.state
         (Addr.make ~rtype:"aws_subnet" ~rname:"s" ~key:(Addr.Kint 0) ()))
  in
  let vpc =
    Option.get
      (State.find_opt report.Executor.state
         (Addr.make ~rtype:"aws_vpc" ~rname:"main" ()))
  in
  check string_ "reference resolved to cloud id"
    vpc.State.cloud_id
    (Value.to_string (Smap.find "vpc_id" (State.attrs subnet)))

let test_deploy_respects_dependency_order () =
  let cloud = fresh_cloud () in
  let report = deploy cloud web_tier in
  check bool_ "ok" true (Executor.succeeded report);
  let log = Cloudless_sim.Activity_log.all (Cloud.log cloud) in
  let create_times =
    List.filter_map
      (fun (e : Cloudless_sim.Activity_log.entry) ->
        match e.Cloudless_sim.Activity_log.op with
        | Cloudless_sim.Activity_log.Log_create ->
            Some (e.Cloudless_sim.Activity_log.rtype, e.Cloudless_sim.Activity_log.time)
        | _ -> None)
      log
  in
  let time_of ty =
    List.filter_map (fun (t, tm) -> if t = ty then Some tm else None) create_times
  in
  let vpc_done = List.hd (time_of "aws_vpc") in
  List.iter
    (fun subnet_done -> check bool_ "vpc before subnet" true (vpc_done < subnet_done))
    (time_of "aws_subnet")

let test_second_apply_is_noop () =
  let cloud = fresh_cloud () in
  let report1 = deploy cloud web_tier in
  let instances = expand_src web_tier in
  (* re-plan against the resulting state: everything is a no-op *)
  let plan2 = Plan.make ~state:report1.Executor.state instances in
  check bool_ "empty plan" true (Plan.is_empty plan2)

let test_update_plan_and_apply () =
  let cloud = fresh_cloud () in
  let report1 = deploy cloud web_tier in
  let updated = Test_fixtures.replace_substring web_tier ~sub:"t3.small" ~by:"t3.large" in
  let instances = expand_src updated in
  let plan = Plan.make ~state:report1.Executor.state instances in
  let s = Plan.summarize plan in
  check int_ "two updates (both instances)" 2 s.Plan.to_update;
  check int_ "no creates" 0 s.Plan.to_create;
  let report2 =
    Executor.apply cloud ~config:Executor.baseline_config
      ~state:report1.Executor.state ~plan ()
  in
  check bool_ "update applied" true (Executor.succeeded report2)

let test_replace_on_force_new () =
  let cloud = fresh_cloud () in
  let report1 = deploy cloud web_tier in
  (* cidr_block on aws_vpc is force_new *)
  let updated = Test_fixtures.replace_substring web_tier ~sub:"10.0.0.0/16" ~by:"10.1.0.0/16" in
  let instances = expand_src updated in
  let plan = Plan.make ~state:report1.Executor.state instances in
  let s = Plan.summarize plan in
  check bool_ "vpc replaced" true (s.Plan.to_replace >= 1)

let test_delete_orphans () =
  let cloud = fresh_cloud () in
  let report1 = deploy cloud web_tier in
  (* new config without the instances *)
  let trimmed =
    {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "s" {
  count      = 2
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, count.index)
  region     = "us-east-1"
}
|}
  in
  let instances = expand_src trimmed in
  let plan = Plan.make ~state:report1.Executor.state instances in
  let s = Plan.summarize plan in
  check int_ "two deletes" 2 s.Plan.to_delete;
  let report2 =
    Executor.apply cloud ~config:Executor.baseline_config
      ~state:report1.Executor.state ~plan ()
  in
  check bool_ "deletes applied" true (Executor.succeeded report2);
  check int_ "3 resources left" 3 (Cloud.resource_count cloud)

let test_delete_order_reversed () =
  (* destroying everything must delete dependents before dependencies *)
  let cloud = fresh_cloud () in
  let report1 = deploy cloud web_tier in
  let plan = Plan.make ~state:report1.Executor.state [] in
  check int_ "5 deletes" 5 (Plan.summarize plan).Plan.to_delete;
  let report2 =
    Executor.apply cloud ~config:Executor.baseline_config
      ~state:report1.Executor.state ~plan ()
  in
  check bool_ "destroy ok" true (Executor.succeeded report2);
  check int_ "cloud empty" 0 (Cloud.resource_count cloud);
  check int_ "state empty" 0 (State.size report2.Executor.state)

let test_cloudless_engine_also_correct () =
  let cloud = fresh_cloud () in
  let report = deploy ~engine:Executor.cloudless_config cloud web_tier in
  check bool_ "ok" true (Executor.succeeded report);
  check int_ "5 applied" 5 (List.length report.Executor.applied)

let test_cloudless_faster_on_wide_graph () =
  (* 30 independent slow-ish resources: parallelism cap 10 hurts the
     baseline; the cloudless engine runs them all at once *)
  let src =
    {|
resource "aws_instance" "w" {
  count         = 30
  ami           = "ami-1"
  instance_type = "t3.small"
  region        = "us-east-1"
}
|}
  in
  let cloud_a = fresh_cloud () in
  let r_base = deploy ~engine:Executor.baseline_config cloud_a src in
  let cloud_b = fresh_cloud () in
  let r_cl = deploy ~engine:Executor.cloudless_config cloud_b src in
  check bool_ "both ok" true (Executor.succeeded r_base && Executor.succeeded r_cl);
  check bool_
    (Printf.sprintf "cloudless (%.0fs) < baseline (%.0fs)"
       r_cl.Executor.makespan r_base.Executor.makespan)
    true
    (r_cl.Executor.makespan < r_base.Executor.makespan)

let test_semantic_check_fails_deploy () =
  (* VM referencing a NIC in another region: passes IaC syntax, fails in
     the cloud with the opaque message (§3.2/§3.5 scenario) *)
  let src =
    {|
resource "aws_network_interface" "nic" {
  name   = "nic1"
  region = "us-west-2"
}
resource "aws_virtual_machine" "vm" {
  name    = "vm1"
  nic_ids = [aws_network_interface.nic.id]
  region  = "us-east-1"
}
|}
  in
  let cloud = fresh_cloud () in
  let report = deploy cloud src in
  check int_ "one failure" 1 (List.length report.Executor.failed);
  let f = List.hd report.Executor.failed in
  check bool_ "opaque NIC message" true
    (Test_fixtures.contains_substring ~sub:"NIC" f.Executor.reason);
  (* NIC itself deployed fine *)
  check int_ "nic applied" 1 (List.length report.Executor.applied)

let test_failed_dependency_skips_dependents () =
  let config =
    Cloud_rules.config_with_checks
      ~base:
        {
          Cloud.default_config with
          Cloud.failure =
            Cloudless_sim.Failure.make ~permanent:[ ("aws_vpc", "denied") ] ();
        }
      ()
  in
  let cloud = fresh_cloud ~config () in
  let report = deploy cloud web_tier in
  check int_ "vpc failed" 1 (List.length report.Executor.failed);
  check int_ "subnets+instances skipped" 4 (List.length report.Executor.skipped)

let test_transient_failures_are_retried () =
  let config =
    Cloud_rules.config_with_checks
      ~base:
        {
          Cloud.default_config with
          Cloud.failure = Cloudless_sim.Failure.make ~transient_prob:0.3 ();
        }
      ()
  in
  let cloud = fresh_cloud ~config () in
  let report = deploy ~engine:Executor.cloudless_config cloud web_tier in
  check bool_ "eventually succeeds" true (Executor.succeeded report);
  check bool_ "retries happened" true (report.Executor.retries > 0)

let test_refresh_reads_state () =
  let cloud = fresh_cloud () in
  let report1 = deploy cloud web_tier in
  (* re-apply with baseline (full refresh): 5 reads *)
  let instances = expand_src web_tier in
  let plan = Plan.make ~state:report1.Executor.state instances in
  let report2 =
    Executor.apply cloud ~config:Executor.baseline_config
      ~state:report1.Executor.state ~plan ()
  in
  check int_ "full refresh reads all 5" 5 report2.Executor.refresh_reads

let test_deterministic_deploys () =
  let run () =
    let cloud = fresh_cloud ~seed:7 () in
    let r = deploy cloud web_tier in
    r.Executor.makespan
  in
  check (Alcotest.float 1e-9) "same seed, same makespan" (run ()) (run ())

let test_create_before_destroy () =
  (* with the lifecycle flag, the replacement VPC comes up before the
     old one is destroyed: the cloud briefly holds both, and the log
     shows create-before-delete *)
  let src cidr cbd =
    Printf.sprintf
      {|
resource "aws_vpc" "main" {
  cidr_block = "%s"
  region     = "us-east-1"
  lifecycle {
    create_before_destroy = %b
  }
}
|}
      cidr cbd
  in
  let order_of cbd =
    let cloud = fresh_cloud () in
    let report1 = deploy cloud (src "10.0.0.0/16" cbd) in
    assert (Executor.succeeded report1);
    (* force replacement: cidr_block is force_new *)
    let instances = expand_src (src "10.9.0.0/16" cbd) in
    let plan = Plan.make ~state:report1.Executor.state instances in
    check bool_ "replace planned" true ((Plan.summarize plan).Plan.to_replace = 1);
    let report2 =
      Executor.apply cloud ~config:Executor.cloudless_config
        ~state:report1.Executor.state ~plan ()
    in
    check bool_ "replace ok" true (Executor.succeeded report2);
    check int_ "one vpc afterwards" 1 (Cloud.resource_count cloud);
    (* order of the replacement ops in the activity log *)
    Cloudless_sim.Activity_log.all (Cloud.log cloud)
    |> List.filter_map (fun (e : Cloudless_sim.Activity_log.entry) ->
           match e.Cloudless_sim.Activity_log.op with
           | Cloudless_sim.Activity_log.Log_create -> Some "create"
           | Cloudless_sim.Activity_log.Log_delete -> Some "delete"
           | _ -> None)
    |> List.tl (* drop the initial create *)
  in
  check (Alcotest.list string_) "cbd: create then delete"
    [ "create"; "delete" ] (order_of true);
  check (Alcotest.list string_) "default: delete then create"
    [ "delete"; "create" ] (order_of false)

let test_prevent_destroy_blocks_replace () =
  let src cidr =
    Printf.sprintf
      {|
resource "aws_vpc" "main" {
  cidr_block = "%s"
  region     = "us-east-1"
  lifecycle {
    prevent_destroy = true
  }
}
|}
      cidr
  in
  let cloud = fresh_cloud () in
  let report1 = deploy cloud (src "10.0.0.0/16") in
  assert (Executor.succeeded report1);
  (* a force-new change on a guarded resource is rejected at plan time *)
  let instances = expand_src (src "10.7.0.0/16") in
  (match Plan.make ~state:report1.Executor.state instances with
  | exception
      Cloudless_error.Error
        { code = "plan-blocked"; addr = Some addr; message = reason; _ } ->
      check string_ "guarded resource" "aws_vpc.main" (Addr.to_string addr);
      check bool_ "reason names the attribute" true
        (Test_fixtures.contains_substring ~sub:"cidr_block" reason)
  | _ -> Alcotest.fail "expected a plan-blocked error");
  (* in-place updates remain allowed *)
  let updated = expand_src (Test_fixtures.replace_substring (src "10.0.0.0/16")
    ~sub:"region     = \"us-east-1\"" ~by:"region     = \"us-east-1\"\n  enable_dns = true") in
  let plan = Plan.make ~state:report1.Executor.state updated in
  check int_ "update allowed" 1 (Plan.summarize plan).Plan.to_update

(* ------------------------------------------------------------------ *)
(* Scheduler determinism (E11 guard)                                   *)
(* ------------------------------------------------------------------ *)

(* Golden values recorded from the seed's list-based scheduler: the
   heap ready set must reproduce the exact makespan and apply order
   (identical tie-breaking), or E1/E2/E10 tables silently shift. *)
let test_seed_golden_makespans () =
  let golden =
    [
      ( Cloudless_workload.Workload.web_tier (),
        Executor.cloudless_config,
        471.87722419265299,
        Some
          [
            "aws_vpc.main"; "aws_subnet.app[0]"; "aws_security_group.web";
            "aws_subnet.app[1]"; "aws_security_group_rule.https";
            "aws_lb_target_group.tg"; "aws_db_subnet_group.db";
            "aws_instance.web[0]"; "aws_instance.web[1]";
            "aws_instance.web[2]"; "aws_instance.web[3]"; "aws_lb.front";
            "aws_lb_listener.https"; "aws_db_instance.db";
          ] );
      ( Cloudless_workload.Workload.web_tier (),
        Executor.baseline_config,
        471.7147692600555,
        None );
      ( Cloudless_workload.Workload.microservices ~services:4 (),
        Executor.cloudless_config,
        57.597893395300538,
        None );
      (* wide enough that paced admissions queue behind booked slots:
         pins that every walker entry re-runs admission *)
      ( Cloudless_workload.Workload.microservices ~services:25 (),
        Executor.cloudless_config,
        101.86112825552138,
        None );
      ( Cloudless_workload.Workload.layered ~width:4 ~depth:3 (),
        Executor.cloudless_config,
        276.02576543473987,
        None );
    ]
  in
  List.iter
    (fun (src, engine, makespan, applied) ->
      let cloud = fresh_cloud ~seed:42 () in
      let report = deploy ~engine cloud src in
      check bool_ "succeeded" true (Executor.succeeded report);
      check (Alcotest.float 0.) "seed makespan unchanged" makespan
        report.Executor.makespan;
      match applied with
      | None -> ()
      | Some order ->
          check (Alcotest.list string_) "seed apply order unchanged" order
            (List.map Addr.to_string report.Executor.applied))
    golden

(* The heap and the legacy list ready set must schedule identically on
   every policy; only the engine overhead may differ. *)
let test_heap_list_equivalent () =
  let srcs =
    [
      Cloudless_workload.Workload.web_tier ();
      Cloudless_workload.Workload.microservices ~services:6 ();
      Cloudless_workload.Workload.layered ~width:6 ~depth:4 ();
      Cloudless_workload.Workload.fleet ~resources:120 ();
    ]
  in
  List.iter
    (fun src ->
      List.iter
        (fun engine ->
          List.iter
            (fun seed ->
              let run sched =
                let cloud = fresh_cloud ~seed () in
                let instances = expand_src src in
                let plan = Plan.make ~state:State.empty instances in
                Executor.apply cloud ~config:engine ~state:State.empty ~plan
                  ~sched ()
              in
              let h = run Executor.Sched_heap in
              let l = run Executor.Sched_list in
              check (Alcotest.float 0.) "same makespan" l.Executor.makespan
                h.Executor.makespan;
              check (Alcotest.list string_) "same apply order"
                (List.map Addr.to_string l.Executor.applied)
                (List.map Addr.to_string h.Executor.applied);
              check int_ "same picks" l.Executor.sched_picks
                h.Executor.sched_picks;
              check int_ "same peak ready" l.Executor.peak_ready
                h.Executor.peak_ready)
            [ 42; 43 ])
        [ Executor.baseline_config; Executor.cloudless_config ])
    srcs

(* A failure cascade skips every dependent of the failed change; both
   implementations must skip the same set. *)
let test_heap_list_equivalent_on_failure () =
  let src =
    Cloudless_workload.Workload.misconfigured Cloudless_workload.Workload.M_unknown_region
  in
  let run sched =
    let cloud = fresh_cloud ~seed:42 () in
    let instances = expand_src src in
    let plan = Plan.make ~state:State.empty instances in
    Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
      ~plan ~sched ()
  in
  let h = run Executor.Sched_heap in
  let l = run Executor.Sched_list in
  check (Alcotest.list string_) "same applied"
    (List.map Addr.to_string l.Executor.applied)
    (List.map Addr.to_string h.Executor.applied);
  check (Alcotest.list string_) "same skipped"
    (List.sort compare (List.map Addr.to_string l.Executor.skipped))
    (List.sort compare (List.map Addr.to_string h.Executor.skipped));
  check int_ "same failures" (List.length l.Executor.failed)
    (List.length h.Executor.failed)

(* The fleet generator hits its resource budget exactly. *)
let test_fleet_exact_count () =
  List.iter
    (fun n ->
      let instances =
        expand_src (Cloudless_workload.Workload.fleet ~resources:n ())
      in
      check int_ "exact instance count" n (List.length instances))
    [ 1; 2; 9; 10; 100; 137; 1000 ]

let suites =
  [
    ( "deploy.end_to_end",
      [
        Alcotest.test_case "web tier" `Quick test_deploy_web_tier;
        Alcotest.test_case "dependency order" `Quick test_deploy_respects_dependency_order;
        Alcotest.test_case "second apply noop" `Quick test_second_apply_is_noop;
        Alcotest.test_case "update" `Quick test_update_plan_and_apply;
        Alcotest.test_case "replace on force_new" `Quick test_replace_on_force_new;
        Alcotest.test_case "create_before_destroy" `Quick test_create_before_destroy;
        Alcotest.test_case "prevent_destroy" `Quick test_prevent_destroy_blocks_replace;
        Alcotest.test_case "delete orphans" `Quick test_delete_orphans;
        Alcotest.test_case "destroy order" `Quick test_delete_order_reversed;
      ] );
    ( "deploy.engines",
      [
        Alcotest.test_case "cloudless correct" `Quick test_cloudless_engine_also_correct;
        Alcotest.test_case "cloudless faster on wide graph" `Quick test_cloudless_faster_on_wide_graph;
        Alcotest.test_case "semantic check fails late" `Quick test_semantic_check_fails_deploy;
        Alcotest.test_case "failed dep skips dependents" `Quick test_failed_dependency_skips_dependents;
        Alcotest.test_case "transient retried" `Quick test_transient_failures_are_retried;
        Alcotest.test_case "refresh reads" `Quick test_refresh_reads_state;
        Alcotest.test_case "determinism" `Quick test_deterministic_deploys;
      ] );
    ( "deploy.scheduler",
      [
        Alcotest.test_case "seed golden makespans" `Quick
          test_seed_golden_makespans;
        Alcotest.test_case "heap = list schedule" `Quick
          test_heap_list_equivalent;
        Alcotest.test_case "heap = list on failure" `Quick
          test_heap_list_equivalent_on_failure;
        Alcotest.test_case "fleet exact count" `Quick test_fleet_exact_count;
      ] );
  ]
