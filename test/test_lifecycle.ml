(* End-to-end tests of the Cloudless lifecycle facade (Figure 1(b)):
   develop -> validate -> deploy -> update -> observe -> police ->
   rollback. *)

open Cloudless_hcl
module Lifecycle = Cloudless.Lifecycle
module Executor = Cloudless_deploy.Executor
module State = Cloudless_state.State
module Version_store = Cloudless_state.Version_store
module Cloud = Cloudless_sim.Cloud
module Workload = Cloudless_workload.Workload
module Drift = Cloudless_drift.Drift
module Policy = Cloudless_policy.Policy
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Lifecycle.error_to_string e)

let test_deploy_web_tier () =
  let t = Lifecycle.create () in
  let report = ok (Lifecycle.deploy t (Workload.web_tier ())) in
  check bool_ "succeeded" true (Executor.succeeded report);
  check bool_ "state populated" true (State.size (Lifecycle.state t) > 0);
  check int_ "one version recorded" 1 (Version_store.length (Lifecycle.versions t))

let test_develop_rejects_invalid () =
  let t = Lifecycle.create () in
  match Lifecycle.develop t (Workload.misconfigured Workload.M_region_mismatch) with
  | Error (Lifecycle.Invalid_config ds) ->
      check bool_ "diagnostics returned" true (List.length ds > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e)
  | Ok _ -> Alcotest.fail "misconfig must be rejected before deployment"

let test_update_with_scoped_refresh () =
  let t = Lifecycle.create () in
  ignore (ok (Lifecycle.deploy t (Workload.web_tier ())));
  let before = State.size (Lifecycle.state t) in
  (* grow the web fleet from 4 to 6 *)
  let src =
    Test_fixtures.replace_substring (Workload.web_tier ())
      ~sub:"count                  = 4" ~by:"count                  = 6"
  in
  let report = ok (Lifecycle.update t src) in
  check bool_ "update ok" true (Executor.succeeded report);
  check int_ "two more resources" (before + 2) (State.size (Lifecycle.state t));
  (* scoped refresh: far fewer reads than the full state *)
  check bool_
    (Printf.sprintf "scoped refresh reads (%d) < state size (%d)"
       report.Executor.refresh_reads before)
    true
    (report.Executor.refresh_reads < before)

let test_data_source_resolution () =
  let t = Lifecycle.create ~default_region:"eu-west-1" () in
  let src =
    {|
data "aws_region" "current" {}
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  region     = data.aws_region.current.name
}
|}
  in
  let report = ok (Lifecycle.deploy t src) in
  check bool_ "ok" true (Executor.succeeded report);
  let r =
    Option.get
      (State.find_opt (Lifecycle.state t) (Addr.make ~rtype:"aws_vpc" ~rname:"v" ()))
  in
  check string_ "region from data source" "eu-west-1" r.State.region

(* One provider env: [cloudless plan] and [cloudless validate] resolve
   every data source [Lifecycle.deploy] does. *)
let test_cli_data_sources () =
  let src =
    {|data "aws_ami" "x" {
  name_filter = "ubuntu"
}
data "aws_availability_zones" "az" {}
resource "aws_instance" "web" {
  ami           = data.aws_ami.x.id
  instance_type = "t3.micro"
  region        = "us-east-1"
  tags          = { zone = data.aws_availability_zones.az.names[0] }
}
|}
  in
  let file = Filename.temp_file "ami" ".tf" in
  let state_path = Filename.temp_file "ami" ".cls" in
  Sys.remove state_path;
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Cloudless.Io_util.write_file file src;
      let out = Buffer.create 256 in
      let io =
        { Cloudless.Cli.out = Buffer.add_string out; err = Buffer.add_string out }
      in
      check int_ "plan: a non-empty diff" 2
        (Cloudless.Cli.plan ~io ~file ~state_path ());
      check bool_ "the instance is planned" true
        (Test_fixtures.contains_substring ~sub:"+ aws_instance.web"
           (Buffer.contents out));
      check int_ "validate: no error" 0
        (Cloudless.Cli.validate ~io ~file ~state_path ()));
  let t = Lifecycle.create () in
  ignore (ok (Lifecycle.deploy t src));
  let r =
    Option.get
      (State.find_opt (Lifecycle.state t)
         (Addr.make ~rtype:"aws_instance" ~rname:"web" ()))
  in
  check string_ "image from aws_ami" "ami-ubuntu-latest"
    (Value.to_string (Smap.find "ami" (State.attrs r)));
  check string_ "zone from aws_availability_zones" "us-east-1a"
    (Value.to_string
       (Smap.find "zone" (Value.to_map (Smap.find "tags" (State.attrs r)))))

let test_figure2_deploys () =
  (* the paper's own program, end to end *)
  let t = Lifecycle.create () in
  let report = ok (Lifecycle.deploy t Test_fixtures.figure2) in
  check bool_ "figure 2 deploys" true (Executor.succeeded report);
  check int_ "nic + vm" 2 (State.size (Lifecycle.state t))

let test_rollback_via_time_machine () =
  let t = Lifecycle.create () in
  ignore (ok (Lifecycle.deploy t (Workload.web_tier ~with_db:false ~with_lb:false ())));
  let v1 = Option.get (Version_store.head (Lifecycle.versions t)) in
  let size1 = State.size (Lifecycle.state t) in
  (* update: bigger fleet *)
  let src =
    Test_fixtures.replace_substring
      (Workload.web_tier ~with_db:false ~with_lb:false ())
      ~sub:"count                  = 4" ~by:"count                  = 8"
  in
  ignore (ok (Lifecycle.update t src));
  check bool_ "grew" true (State.size (Lifecycle.state t) > size1);
  (* roll back *)
  let report = ok (Lifecycle.rollback_to t ~version_id:v1) in
  check bool_ "rollback ok" true (Executor.succeeded report);
  check int_ "size restored" size1 (State.size (Lifecycle.state t));
  check int_ "cloud matches" size1 (Cloud.resource_count (Lifecycle.cloud t));
  (* config source restored too *)
  check bool_ "config restored" true
    (Test_fixtures.contains_substring ~sub:"count                  = 4"
       (Lifecycle.config_source t))

let test_drift_observe_and_reconcile () =
  let t = Lifecycle.create () in
  ignore (ok (Lifecycle.deploy t (Workload.web_tier ~with_db:false ~with_lb:false ())));
  check int_ "clean at first" 0 (List.length (Lifecycle.check_drift t));
  (* out-of-band change *)
  let addr = Addr.make ~rtype:"aws_instance" ~rname:"web" ~key:(Addr.Kint 0) () in
  let r = Option.get (State.find_opt (Lifecycle.state t) addr) in
  ignore
    (Cloud.mutate_oob (Lifecycle.cloud t) ~script:"legacy" ~cloud_id:r.State.cloud_id
       ~attr:"instance_type" ~value:(Value.Vstring "t3.metal"));
  let events = Lifecycle.check_drift t in
  check int_ "drift observed" 1 (List.length events);
  Lifecycle.reconcile_drift t events;
  let r' = Option.get (State.find_opt (Lifecycle.state t) addr) in
  check bool_ "state reconciled" true
    (Value.equal (Value.Vstring "t3.metal")
       (Smap.find "instance_type" (State.attrs r')))

let test_diagnose_failure () =
  (* develop with validation OFF wouldn't go through develop; instead
     deploy a config whose error only manifests at the cloud: quota *)
  let cloud_config =
    Cloudless_schema.Cloud_rules.config_with_checks
      ~base:{ Cloud.default_config with Cloud.quotas = [ ("aws_eip", 2) ] }
      ()
  in
  let t = Lifecycle.create ~cloud_config () in
  let src = {|
resource "aws_eip" "ip" {
  count  = 5
  region = "us-east-1"
}
|} in
  (match Lifecycle.deploy t src with
  | Error (Lifecycle.Deploy_failed report) ->
      check bool_ "some failed" true (List.length report.Executor.failed > 0);
      let d = Option.get (Lifecycle.diagnose t (List.hd report.Executor.failed)) in
      check bool_ "quota root cause" true
        (Test_fixtures.contains_substring ~sub:"quota"
           d.Cloudless_debug.Debugger.root_cause)
  | Ok _ -> Alcotest.fail "quota must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e))

let vpn_scaling_policies =
  {|
policy "scale_vpn_tunnels" {
  on   = "telemetry"
  when = obs.vpn_utilization > 0.8

  action "add_tunnel" {
    kind   = "set_count"
    target = "aws_vpn_connection.tunnel"
    value  = obs.tunnel_count + 1
  }
}
|}

let vpn_src count =
  Printf.sprintf
    {|
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_vpn_gateway" "gw" {
  vpc_id        = aws_vpc.v.id
  region        = "us-east-1"
  capacity_mbps = 1000
}
resource "aws_vpn_connection" "tunnel" {
  count          = %d
  vpn_gateway_id = aws_vpn_gateway.gw.id
  customer_ip    = "203.0.113.9"
  region         = "us-east-1"
  bandwidth_mbps = 500
}
|}
    count

let test_police_scales_vpn () =
  let t = Lifecycle.create ~policies:vpn_scaling_policies () in
  ignore (ok (Lifecycle.deploy t (vpn_src 2)));
  let tunnels () =
    List.length
      (List.filter
         (fun (r : State.resource_state) -> r.State.rtype = "aws_vpn_connection")
         (State.resources (Lifecycle.state t)))
  in
  check int_ "2 tunnels" 2 (tunnels ());
  (* telemetry tick under load: the paper's "scale out VPN tunnels if
     throughput is close to capacity" *)
  let result =
    ok
      (Lifecycle.police t
         ~extra:
           [
             ("vpn_utilization", Value.Vfloat 0.93);
             ("tunnel_count", Value.Vint (tunnels ()));
           ])
  in
  check bool_ "policy redeployed" true (result.Lifecycle.reapplied <> None);
  check int_ "3 tunnels now" 3 (tunnels ());
  (* calm traffic: no action *)
  let result =
    ok
      (Lifecycle.police t
         ~extra:
           [
             ("vpn_utilization", Value.Vfloat 0.2);
             ("tunnel_count", Value.Vint (tunnels ()));
           ])
  in
  check bool_ "no reapply when calm" true (result.Lifecycle.reapplied = None);
  check int_ "still 3 tunnels" 3 (tunnels ())

let test_budget_policy_denies_apply () =
  let policies =
    {|
policy "budget" {
  on   = "plan"
  when = obs.projected_cost > 0.5

  action "deny" {
    kind    = "deny"
    message = "over budget"
  }
}
|}
  in
  let t = Lifecycle.create ~policies () in
  (* 10 db instances = 1.71/hr > 0.5 *)
  let src = {|
resource "aws_db_instance" "db" {
  count          = 10
  identifier     = "db-${count.index}"
  engine         = "postgres"
  instance_class = "db.m5.large"
  region         = "us-east-1"
}
|} in
  match Lifecycle.deploy t src with
  | Error (Lifecycle.Policy_denied msg) -> check string_ "message" "over budget" msg
  | Ok _ -> Alcotest.fail "should be denied"
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e)

let test_destroy () =
  let t = Lifecycle.create () in
  ignore (ok (Lifecycle.deploy t (Workload.web_tier ())));
  let report = ok (Lifecycle.destroy t) in
  check bool_ "destroy ok" true (Executor.succeeded report);
  check int_ "cloud empty" 0 (Cloud.resource_count (Lifecycle.cloud t));
  check int_ "state empty" 0 (State.size (Lifecycle.state t))

let test_module_workflow () =
  let t = Lifecycle.create () in
  let network_module =
    Config.parse ~file:"network.tf"
      {|
variable "cidr" {}
resource "aws_vpc" "this" {
  cidr_block = var.cidr
  region     = "us-east-1"
}
resource "aws_subnet" "a" {
  vpc_id     = aws_vpc.this.id
  cidr_block = cidrsubnet(var.cidr, 8, 0)
  region     = "us-east-1"
}
output "subnet_id" { value = aws_subnet.a.id }
|}
  in
  Lifecycle.register_modules t [ ("./network", network_module) ];
  let src =
    {|
module "net" {
  source = "./network"
  cidr   = "10.5.0.0/16"
}
resource "aws_instance" "app" {
  ami           = "ami-1"
  instance_type = "t3.small"
  subnet_id     = module.net.subnet_id
  region        = "us-east-1"
}
|}
  in
  let report = ok (Lifecycle.deploy t src) in
  check bool_ "module deploy ok" true (Executor.succeeded report);
  check int_ "3 resources" 3 (State.size (Lifecycle.state t))

let test_observe_and_police () =
  let policies =
    {|
policy "drift_pager" {
  on   = "drift"
  when = obs.drift_events > 0

  action "page" {
    kind    = "notify"
    message = "drift detected: ${obs.drift_events} event(s)"
  }
}
|}
  in
  let t = Lifecycle.create ~policies () in
  ignore (ok (Lifecycle.deploy t (Workload.web_tier ~with_db:false ~with_lb:false ())));
  (* clean tick: no events, no decisions *)
  let events, decisions = Lifecycle.observe_and_police t in
  check int_ "clean events" 0 (List.length events);
  check int_ "clean decisions" 0 (List.length decisions);
  (* drift + tick *)
  let addr = Addr.make ~rtype:"aws_instance" ~rname:"web" ~key:(Addr.Kint 0) () in
  let r = Option.get (State.find_opt (Lifecycle.state t) addr) in
  ignore
    (Cloud.mutate_oob (Lifecycle.cloud t) ~script:"legacy"
       ~cloud_id:r.State.cloud_id ~attr:"instance_type"
       ~value:(Value.Vstring "t3.metal"));
  let events, decisions = Lifecycle.observe_and_police t in
  check int_ "one event" 1 (List.length events);
  check int_ "policy fired" 1 (List.length decisions);
  (* reconciliation happened too *)
  let r' = Option.get (State.find_opt (Lifecycle.state t) addr) in
  check bool_ "reconciled" true
    (Value.equal (Value.Vstring "t3.metal")
       (Smap.find "instance_type" (State.attrs r')))

let test_incremental_equals_full () =
  (* the incremental path must land in the same end state as the full
     path, for the same edit *)
  let src0 = Workload.web_tier () in
  let edited =
    Test_fixtures.replace_substring src0 ~sub:"t3.small" ~by:"t3.large"
  in
  let run_with update_fn =
    let t = Lifecycle.create ~seed:123 () in
    ignore (ok (Lifecycle.deploy t src0));
    ignore (ok (update_fn t edited));
    (* canonical view of the cloud: (rtype, region, settable attrs) multiset *)
    Cloud.all_resources (Lifecycle.cloud t)
    |> List.map (fun (r : Cloud.resource) ->
           ( r.Cloud.rtype,
             r.Cloud.region,
             Smap.bindings (Cloud.attrs r)
             |> List.filter (fun (k, _) ->
                    not (List.mem k [ "id"; "arn" ]))
             |> List.map (fun (k, v) ->
                    (k, Value.show v)) ))
    |> List.sort compare
  in
  let full t src =
    (* full: develop + apply without scoping *)
    match Lifecycle.develop t src with
    | Ok _ -> Lifecycle.apply t
    | Error e -> Error e
  in
  let incremental t src = Lifecycle.update t src in
  let a = run_with full and b = run_with incremental in
  check bool_ "same end state" true (a = b)

let suites =
  [
    ( "lifecycle",
      [
        Alcotest.test_case "deploy web tier" `Quick test_deploy_web_tier;
        Alcotest.test_case "develop rejects invalid" `Quick test_develop_rejects_invalid;
        Alcotest.test_case "incremental update" `Quick test_update_with_scoped_refresh;
        Alcotest.test_case "data sources" `Quick test_data_source_resolution;
        Alcotest.test_case "figure 2 deploys" `Quick test_figure2_deploys;
        Alcotest.test_case "rollback (time machine)" `Quick test_rollback_via_time_machine;
        Alcotest.test_case "drift observe+reconcile" `Quick test_drift_observe_and_reconcile;
        Alcotest.test_case "diagnose failure" `Quick test_diagnose_failure;
        Alcotest.test_case "police scales vpn" `Quick test_police_scales_vpn;
        Alcotest.test_case "budget denies" `Quick test_budget_policy_denies_apply;
        Alcotest.test_case "destroy" `Quick test_destroy;
        Alcotest.test_case "modules" `Quick test_module_workflow;
        Alcotest.test_case "observe and police" `Quick test_observe_and_police;
        Alcotest.test_case "incremental = full" `Quick test_incremental_equals_full;
        Alcotest.test_case "cli plans in the lifecycle's provider env" `Quick
          test_cli_data_sources;
      ] );
  ]
