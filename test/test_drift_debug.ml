(* Tests for §3.5: drift detection (scan vs log), reconciliation, and
   the IaC debugger's error translation. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Drift = Cloudless_drift.Drift
module Debugger = Cloudless_debug.Debugger
module Workload = Cloudless_workload.Workload
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let deploy_web cloud =
  let src = Workload.web_tier ~with_lb:false ~with_db:false () in
  let cfg = Config.parse ~file:"t" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let plan = Plan.make ~state:State.empty instances in
  let report =
    Executor.apply cloud ~config:Executor.baseline_config ~state:State.empty
      ~plan ()
  in
  assert (Executor.succeeded report);
  report.Executor.state

let instance_addr i = Addr.make ~rtype:"aws_instance" ~rname:"web" ~key:(Addr.Kint i) ()

let drift_one cloud state =
  let r = Option.get (State.find_opt state (instance_addr 0)) in
  (match
     Cloud.mutate_oob cloud ~script:"legacy.sh" ~cloud_id:r.State.cloud_id
       ~attr:"instance_type" ~value:(Value.Vstring "t3.metal")
   with
  | Ok () -> ()
  | Error _ -> assert false);
  r.State.cloud_id

(* ------------------------------------------------------------------ *)
(* Scanner                                                             *)
(* ------------------------------------------------------------------ *)

let test_scan_detects_attr_drift () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  ignore (drift_one cloud state);
  let result = Drift.Scanner.scan cloud ~state () in
  check int_ "one drift event" 1 (List.length result.Drift.Scanner.events);
  (match (List.hd result.Drift.Scanner.events).Drift.kind with
  | Drift.Attr_drift { attr; _ } -> check string_ "attribute" "instance_type" attr
  | _ -> Alcotest.fail "expected attr drift");
  (* a full scan reads every tracked resource *)
  check int_ "reads = state size" (State.size state) result.Drift.Scanner.api_reads

let test_scan_detects_oob_delete () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  let r = Option.get (State.find_opt state (instance_addr 1)) in
  (match Cloud.delete_oob cloud ~script:"legacy.sh" ~cloud_id:r.State.cloud_id with
  | Ok () -> ()
  | Error _ -> assert false);
  let result = Drift.Scanner.scan cloud ~state () in
  check bool_ "deletion detected" true
    (List.exists
       (fun (e : Drift.event) -> e.Drift.kind = Drift.Deleted_oob)
       result.Drift.Scanner.events)

let test_scan_detects_unmanaged () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  ignore
    (Cloud.create_oob cloud ~script:"clickops" ~rtype:"aws_instance"
       ~region:"us-east-1" ~attrs:Smap.empty);
  let result = Drift.Scanner.scan cloud ~state ~detect_unmanaged:true () in
  check bool_ "unmanaged found" true
    (List.exists
       (fun (e : Drift.event) ->
         match e.Drift.kind with Drift.Unmanaged _ -> true | _ -> false)
       result.Drift.Scanner.events)

let test_scan_clean_deployment_quiet () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  let result = Drift.Scanner.scan cloud ~state () in
  check int_ "no events" 0 (List.length result.Drift.Scanner.events)

(* ------------------------------------------------------------------ *)
(* Log tailer                                                          *)
(* ------------------------------------------------------------------ *)

let test_log_tailer_detects_incrementally () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  let tailer = Drift.Log_tailer.create () in
  (* first poll consumes the deployment's own log entries: no drift *)
  check int_ "clean poll" 0 (List.length (Drift.Log_tailer.poll tailer cloud ~state));
  ignore (drift_one cloud state);
  let events = Drift.Log_tailer.poll tailer cloud ~state in
  check int_ "drift flagged" 1 (List.length events);
  let e = List.hd events in
  check bool_ "occurrence time known" true (e.Drift.occurred_at <> None);
  (* second poll: nothing new *)
  check int_ "idempotent" 0 (List.length (Drift.Log_tailer.poll tailer cloud ~state))

let test_log_tailer_ignores_iac_writes () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  let tailer = Drift.Log_tailer.create () in
  ignore (Drift.Log_tailer.poll tailer cloud ~state);
  (* an IaC-driven update is not drift *)
  let r = Option.get (State.find_opt state (instance_addr 0)) in
  ignore
    (Cloud.run_sync cloud
       ~actor:(Cloudless_sim.Activity_log.Iac_engine "cloudless")
       (Cloud.Update
          {
            cloud_id = r.State.cloud_id;
            attrs = Smap.singleton "instance_type" (Value.Vstring "t3.large");
          }));
  check int_ "iac write not flagged" 0
    (List.length (Drift.Log_tailer.poll tailer cloud ~state))

let test_log_tailer_cheaper_than_scan () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  ignore (drift_one cloud state);
  let before = Cloud.api_call_count cloud in
  let tailer = Drift.Log_tailer.create () in
  let events = Drift.Log_tailer.poll tailer cloud ~state in
  let log_cost = Cloud.api_call_count cloud - before in
  check int_ "found the event" 1 (List.length events);
  check int_ "zero management-API reads" 0 log_cost

let test_reconcile_accept () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  ignore (drift_one cloud state);
  let tailer = Drift.Log_tailer.create () in
  let events = Drift.Log_tailer.poll tailer cloud ~state in
  let state' =
    List.fold_left
      (fun s e -> Drift.reconcile cloud ~state:s e Drift.Accept_into_state)
      state events
  in
  let r = Option.get (State.find_opt state' (instance_addr 0)) in
  check bool_ "state caught up" true
    (Value.equal (Value.Vstring "t3.metal") (Smap.find "instance_type" (State.attrs r)));
  (* after reconciliation a scan is clean *)
  let result = Drift.Scanner.scan cloud ~state:state' () in
  check int_ "clean after reconcile" 0 (List.length result.Drift.Scanner.events)

let test_reconcile_revert () =
  let cloud = Cloud.create ~seed:3 () in
  let state = deploy_web cloud in
  let cloud_id = drift_one cloud state in
  let tailer = Drift.Log_tailer.create () in
  let events = Drift.Log_tailer.poll tailer cloud ~state in
  ignore
    (List.fold_left
       (fun s e -> Drift.reconcile cloud ~state:s e Drift.Revert_in_cloud)
       state events);
  let live = Option.get (Cloud.lookup cloud cloud_id) in
  check bool_ "cloud reverted" true
    (Value.equal (Value.Vstring "t3.small")
       (Smap.find "instance_type" (Cloud.attrs live)))

(* ------------------------------------------------------------------ *)
(* Debugger                                                            *)
(* ------------------------------------------------------------------ *)

let nic_mismatch_src =
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

let test_debugger_nic_region_mismatch () =
  (* reproduce the paper's exact scenario end to end *)
  let cloud =
    Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed:1 ()
  in
  let cfg = Config.parse ~file:"main.tf" nic_mismatch_src in
  let instances = (Eval.expand cfg).Eval.instances in
  let plan = Plan.make ~state:State.empty instances in
  let report =
    Executor.apply cloud ~config:Executor.baseline_config ~state:State.empty
      ~plan ()
  in
  check int_ "vm failed" 1 (List.length report.Executor.failed);
  let f = List.hd report.Executor.failed in
  (* the cloud error is the opaque "NIC not found" message *)
  check bool_ "opaque error" true
    (Test_fixtures.contains_substring ~sub:"not found" f.Executor.reason);
  let d =
    Debugger.diagnose ~cfg ~instances ~addr:f.Executor.faddr
      ~error:f.Executor.reason
  in
  check bool_ "high confidence" true (d.Debugger.confidence = `High);
  check bool_ "root cause names regions" true
    (Test_fixtures.contains_substring ~sub:"us-west-2" d.Debugger.root_cause);
  check int_ "two evidence spans" 2 (List.length d.Debugger.evidence);
  (* evidence points at real lines of the program *)
  List.iter
    (fun (e : Debugger.evidence) ->
      check bool_ "line number known" true (Loc.line e.Debugger.espan > 0))
    d.Debugger.evidence;
  check bool_ "fix mentions the NIC" true
    (Test_fixtures.contains_substring ~sub:"aws_network_interface.nic"
       d.Debugger.suggested_fix)

let test_debugger_subnet_range () =
  let src =
    {|
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "192.168.0.0/24"
  region     = "us-east-1"
}
|}
  in
  let cfg = Config.parse ~file:"main.tf" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let d =
    Debugger.diagnose ~cfg ~instances
      ~addr:(Addr.make ~rtype:"aws_subnet" ~rname:"s" ())
      ~error:"InvalidSubnet.Range: the CIDR 192.168.0.0/24 is invalid for the network"
  in
  check bool_ "root cause mentions parent space" true
    (Test_fixtures.contains_substring ~sub:"10.0.0.0/16" d.Debugger.root_cause);
  check bool_ "fix suggests contained prefix" true
    (Test_fixtures.contains_substring ~sub:"10.0.0.0/24" d.Debugger.suggested_fix)

let test_debugger_password () =
  let src =
    {|
resource "azurerm_linux_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  size           = "B2s"
  nic_ids        = []
  admin_password = "hunter2"
}
|}
  in
  let cfg = Config.parse ~file:"main.tf" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let d =
    Debugger.diagnose ~cfg ~instances
      ~addr:(Addr.make ~rtype:"azurerm_linux_virtual_machine" ~rname:"vm" ())
      ~error:"OperationNotAllowed: the property 'adminPassword' is not valid for this request"
  in
  check bool_ "fix mentions flag" true
    (Test_fixtures.contains_substring ~sub:"disable_password" d.Debugger.suggested_fix)

let test_debugger_throttle_and_quota () =
  let cfg = Config.parse ~file:"main.tf" "resource \"aws_eip\" \"e\" {}" in
  let instances = (Eval.expand cfg).Eval.instances in
  let addr = Addr.make ~rtype:"aws_eip" ~rname:"e" () in
  let d1 = Debugger.diagnose ~cfg ~instances ~addr ~error:"429 throttled (retry after 30s)" in
  check bool_ "throttle diagnosed" true
    (Test_fixtures.contains_substring ~sub:"rate limit" d1.Debugger.root_cause);
  let d2 = Debugger.diagnose ~cfg ~instances ~addr ~error:"409 quota exceeded: aws_eip limit 5" in
  check bool_ "quota diagnosed" true
    (Test_fixtures.contains_substring ~sub:"quota" d2.Debugger.root_cause)

let test_debugger_unknown_error_fallback () =
  let cfg = Config.parse ~file:"main.tf" "resource \"aws_eip\" \"e\" {}" in
  let instances = (Eval.expand cfg).Eval.instances in
  let d =
    Debugger.diagnose ~cfg ~instances
      ~addr:(Addr.make ~rtype:"aws_eip" ~rname:"e" ())
      ~error:"something inscrutable"
  in
  check bool_ "low confidence" true (d.Debugger.confidence = `Low);
  check int_ "still points at the block" 1 (List.length d.Debugger.evidence)

let suites =
  [
    ( "drift.scanner",
      [
        Alcotest.test_case "attr drift" `Quick test_scan_detects_attr_drift;
        Alcotest.test_case "oob delete" `Quick test_scan_detects_oob_delete;
        Alcotest.test_case "unmanaged" `Quick test_scan_detects_unmanaged;
        Alcotest.test_case "clean is quiet" `Quick test_scan_clean_deployment_quiet;
      ] );
    ( "drift.log_tailer",
      [
        Alcotest.test_case "incremental detection" `Quick test_log_tailer_detects_incrementally;
        Alcotest.test_case "ignores iac writes" `Quick test_log_tailer_ignores_iac_writes;
        Alcotest.test_case "cheaper than scan" `Quick test_log_tailer_cheaper_than_scan;
      ] );
    ( "drift.reconcile",
      [
        Alcotest.test_case "accept into state" `Quick test_reconcile_accept;
        Alcotest.test_case "revert in cloud" `Quick test_reconcile_revert;
      ] );
    ( "debug",
      [
        Alcotest.test_case "nic region mismatch (paper scenario)" `Quick
          test_debugger_nic_region_mismatch;
        Alcotest.test_case "subnet range" `Quick test_debugger_subnet_range;
        Alcotest.test_case "password flag" `Quick test_debugger_password;
        Alcotest.test_case "throttle & quota" `Quick test_debugger_throttle_and_quota;
        Alcotest.test_case "fallback" `Quick test_debugger_unknown_error_fallback;
      ] );
  ]
