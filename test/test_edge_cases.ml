(* Edge cases across the stack: HCL corner syntax, deep module nesting,
   unknown-value corners, chaos deployment (failure injection), and
   drift-phase policy integration. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Workload = Cloudless_workload.Workload
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let value = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* HCL corner syntax                                                   *)
(* ------------------------------------------------------------------ *)

let test_heredoc_in_config () =
  let src =
    "resource \"aws_iam_policy\" \"p\" {\n"
    ^ "  name   = \"p\"\n"
    ^ "  region = \"us-east-1\"\n"
    ^ "  policy = <<EOF\n{\n  \"Version\": \"2012-10-17\",\n  \"Action\": \"${var.action}\"\n}\nEOF\n"
    ^ "}\n" ^ "variable \"action\" { default = \"s3:GetObject\" }\n"
  in
  let cfg = Config.parse ~file:"t" src in
  let result = Eval.expand cfg in
  let p = List.hd result.Eval.instances in
  let policy = Value.to_string (Smap.find "policy" p.Eval.attrs) in
  check bool_ "interpolated in heredoc" true
    (Test_fixtures.contains_substring ~sub:"s3:GetObject" policy);
  check bool_ "multiline preserved" true
    (Test_fixtures.contains_substring ~sub:"\n" policy)

let test_splat_over_counted_resource () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_subnet" "s" {
  count      = 3
  cidr_block = cidrsubnet("10.0.0.0/16", 8, count.index)
}
output "all_cidrs" { value = aws_subnet.s[*].cidr_block }
output "joined" { value = join(",", aws_subnet.s[*].cidr_block) }
|}
  in
  let result = Eval.expand cfg in
  check value "splat collects known attrs"
    (Value.Vlist
       [
         Value.Vstring "10.0.0.0/24";
         Value.Vstring "10.0.1.0/24";
         Value.Vstring "10.0.2.0/24";
       ])
    (List.assoc "all_cidrs" result.Eval.outputs);
  check value "join over splat"
    (Value.Vstring "10.0.0.0/24,10.0.1.0/24,10.0.2.0/24")
    (List.assoc "joined" result.Eval.outputs)

let test_two_level_modules () =
  let leaf =
    Config.parse ~file:"leaf.tf"
      {|
variable "n" {}
resource "x_leaf" "r" { idx = var.n }
output "double" { value = var.n * 2 }
|}
  in
  let mid =
    Config.parse ~file:"mid.tf"
      {|
variable "base" {}
module "inner" {
  source = "./leaf"
  n      = var.base + 1
}
output "result" { value = module.inner.double }
|}
  in
  let root =
    Config.parse ~file:"root.tf"
      {|
module "outer" {
  source = "./mid"
  base   = 10
}
output "final" { value = module.outer.result }
|}
  in
  let env =
    {
      Eval.default_env with
      Eval.module_registry =
        (fun s ->
          match s with
          | "./leaf" -> Some leaf
          | "./mid" -> Some mid
          | _ -> None);
    }
  in
  let result = Eval.expand ~env root in
  check int_ "one leaf instance" 1 (List.length result.Eval.instances);
  check string_ "nested address" "module.outer.module.inner.x_leaf.r"
    (Addr.to_string (List.hd result.Eval.instances).Eval.addr);
  check value "outputs flow through two levels" (Value.Vint 22)
    (List.assoc "final" result.Eval.outputs)

let test_conditional_count () =
  let run enabled =
    let vars = Smap.singleton "enabled" (Value.Vbool enabled) in
    let cfg =
      Config.parse ~file:"t"
        {|
variable "enabled" {}
resource "aws_eip" "ip" {
  count  = var.enabled ? 2 : 0
  region = "us-east-1"
}
|}
    in
    List.length (Eval.expand ~vars cfg).Eval.instances
  in
  check int_ "enabled" 2 (run true);
  check int_ "disabled" 0 (run false)

let test_for_each_over_variable_map () =
  let vars =
    Smap.singleton "zones"
      (Value.of_assoc
         [ ("a", Value.Vstring "10.0.1.0/24"); ("b", Value.Vstring "10.0.2.0/24") ])
  in
  let cfg =
    Config.parse ~file:"t"
      {|
variable "zones" {}
resource "aws_subnet" "s" {
  for_each   = var.zones
  cidr_block = each.value
  availability_zone = "us-east-1${each.key}"
}
output "zone_of_a" { value = aws_subnet.s["a"].availability_zone }
|}
  in
  let result = Eval.expand ~vars cfg in
  check int_ "two instances" 2 (List.length result.Eval.instances);
  check value "keyed access" (Value.Vstring "us-east-1a")
    (List.assoc "zone_of_a" result.Eval.outputs)

let test_arithmetic_on_unknown_stays_unknown () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
output "derived" { value = "${aws_vpc.v.id}-suffix" }
output "guarded" { value = aws_vpc.v.id == "x" ? 1 : 2 }
|}
  in
  let result = Eval.expand cfg in
  check bool_ "template with unknown" true
    (Value.is_unknown (List.assoc "derived" result.Eval.outputs));
  check bool_ "conditional on unknown" true
    (Value.is_unknown (List.assoc "guarded" result.Eval.outputs))

let test_try_function_in_config () =
  (* try is lazy over evaluation errors: the failing reference is
     swallowed and the fallback wins *)
  check value "try falls through to literal" (Value.Vint 9)
    (Eval.eval_string {|try(var.oops, 9)|});
  check value "try keeps first success" (Value.Vint 1)
    (Eval.eval_string {|try(1, var.oops)|});
  check value "can is false on error" (Value.Vbool false)
    (Eval.eval_string {|can(var.oops)|});
  check value "can is true on success" (Value.Vbool true)
    (Eval.eval_string {|can(1 + 1)|});
  match Eval.eval_string {|try(var.a, var.b)|} with
  | exception Cloudless_error.Error { code = "eval-error"; _ } -> ()
  | v -> Alcotest.failf "expected error when all branches fail, got %a" Value.pp v

let test_negative_numbers_and_precedence () =
  check value "neg precedence" (Value.Vint (-6)) (Eval.eval_string "-2 * 3");
  check value "sub vs neg" (Value.Vint 1) (Eval.eval_string "3 - 2");
  check value "mod chain" (Value.Vint 0) (Eval.eval_string "10 % 5 * 3")

(* ------------------------------------------------------------------ *)
(* Chaos: failure injection + hangs                                    *)
(* ------------------------------------------------------------------ *)

let test_chaos_deploy_converges () =
  (* transient failures and hangs everywhere: the cloudless engine's
     retries must still converge, and bookkeeping must stay exact *)
  let config =
    Cloudless_schema.Cloud_rules.config_with_checks
      ~base:
        {
          Cloud.default_config with
          Cloud.failure =
            Cloudless_sim.Failure.make ~transient_prob:0.25 ~hang_prob:0.1
              ~hang_factor:5. ();
        }
      ()
  in
  let cloud = Cloud.create ~config ~seed:13 () in
  let src = Workload.microservices ~services:6 () in
  let cfg = Config.parse ~file:"t" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let plan = Plan.make ~state:State.empty instances in
  let report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
      ~plan ()
  in
  check bool_ "converges despite chaos" true (Executor.succeeded report);
  check bool_ "retries recorded" true (report.Executor.retries > 0);
  check int_ "state exact" (List.length instances)
    (State.size report.Executor.state);
  check int_ "cloud exact" (List.length instances) (Cloud.resource_count cloud)

let test_chaos_is_deterministic () =
  let run () =
    let config =
      Cloudless_schema.Cloud_rules.config_with_checks
        ~base:
          {
            Cloud.default_config with
            Cloud.failure = Cloudless_sim.Failure.make ~transient_prob:0.3 ();
          }
        ()
    in
    let cloud = Cloud.create ~config ~seed:99 () in
    let cfg = Config.parse ~file:"t" (Workload.web_tier ()) in
    let instances = (Eval.expand cfg).Eval.instances in
    let plan = Plan.make ~state:State.empty instances in
    let report =
      Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
        ~plan ()
    in
    (report.Executor.makespan, report.Executor.retries)
  in
  let a = run () and b = run () in
  check bool_ "chaos replays identically" true (a = b)

(* ------------------------------------------------------------------ *)
(* Drift-phase policies through the controller                         *)
(* ------------------------------------------------------------------ *)

let test_drift_policy_notification () =
  let controller =
    Cloudless_policy.Controller.of_source ~file:"p"
      {|
policy "drift_pager" {
  on   = "drift"
  when = obs.drift_events > 2

  action "page" {
    kind    = "notify"
    message = "PAGE: ${obs.drift_events} drift events"
  }
}
|}
  in
  let tick n =
    Cloudless_policy.Controller.tick controller
      ~phase:Cloudless_policy.Policy.On_drift
      ~obs:(Cloudless_policy.Policy.obs_of_list [ ("drift_events", Value.Vint n) ])
      ()
  in
  check int_ "quiet below threshold" 0 (List.length (tick 1).Cloudless_policy.Controller.decisions);
  check int_ "pages above threshold" 1 (List.length (tick 5).Cloudless_policy.Controller.decisions);
  check (Alcotest.list string_) "message"
    [ "PAGE: 5 drift events" ]
    (Cloudless_policy.Controller.notifications controller)

(* ------------------------------------------------------------------ *)
(* Validation false-positive guard                                     *)
(* ------------------------------------------------------------------ *)

let test_no_false_positives_on_valid_corpus () =
  (* every generator's output must validate clean at the strictest
     level — the catch-rate numbers in E6 are meaningless if the
     pipeline cries wolf *)
  let corpus =
    [
      Workload.web_tier ();
      Workload.web_tier ~subnets:4 ~web_count:12 ();
      Workload.microservices ~services:8 ();
      Workload.data_pipeline ~stages:5 ();
      Workload.multi_region ();
      Workload.layered ~width:4 ~depth:4 ();
      Test_fixtures.figure2;
    ]
  in
  List.iteri
    (fun i src ->
      let report =
        Cloudless_validate.Validate.validate_source
          ~level:Cloudless_validate.Validate.L_cloud ~file:(string_of_int i) src
      in
      let errors =
        Cloudless_validate.Diagnostic.errors
          report.Cloudless_validate.Validate.diagnostics
      in
      if errors <> [] then
        Alcotest.failf "corpus %d: %s" i
          (Cloudless_validate.Diagnostic.to_string (List.hd errors)))
    corpus

let test_dynamic_blocks () =
  let src =
    {|
variable "ports" { default = [80, 443, 8080] }
resource "aws_security_group" "sg" {
  name   = "dyn-sg"
  region = "us-east-1"
  dynamic "ingress" {
    for_each = var.ports
    content {
      port     = ingress.value
      position = ingress.key
      protocol = "tcp"
    }
  }
}
|}
  in
  let cfg = Config.parse ~file:"t" src in
  let result = Eval.expand cfg in
  let sg = List.hd result.Eval.instances in
  (match Smap.find "ingress" sg.Eval.attrs with
  | Value.Vlist blocks ->
      check int_ "three generated blocks" 3 (List.length blocks);
      (match List.nth blocks 1 with
      | Value.Vmap m ->
          check value "value bound" (Value.Vint 443) (Smap.find "port" m);
          check value "key bound" (Value.Vint 1) (Smap.find "position" m)
      | v -> Alcotest.failf "expected block map, got %a" Value.pp v)
  | v -> Alcotest.failf "expected block list, got %a" Value.pp v);
  (* the iterator name is not misread as a resource reference *)
  let report =
    Cloudless_validate.Validate.validate_source
      ~level:Cloudless_validate.Validate.L_references ~file:"t" src
  in
  check int_ "no phantom references" 0
    (Cloudless_validate.Diagnostic.count_errors
       report.Cloudless_validate.Validate.diagnostics)

let test_dynamic_block_custom_iterator () =
  let src =
    {|
resource "aws_security_group" "sg" {
  name   = "dyn2"
  region = "us-east-1"
  dynamic "egress" {
    for_each = { web = 80, tls = 443 }
    iterator = rule
    content {
      name = rule.key
      port = rule.value
    }
  }
}
|}
  in
  let result = Eval.expand (Config.parse ~file:"t" src) in
  let sg = List.hd result.Eval.instances in
  match Smap.find "egress" sg.Eval.attrs with
  | Value.Vlist [ Value.Vmap a; Value.Vmap b ] ->
      check value "tls first (map order)" (Value.Vstring "tls") (Smap.find "name" a);
      check value "tls port" (Value.Vint 443) (Smap.find "port" a);
      check value "web port" (Value.Vint 80) (Smap.find "port" b)
  | v -> Alcotest.failf "expected two blocks, got %a" Value.pp v

let test_gcp_provider_stack () =
  (* the knowledge base and simulator cover a third provider flavour *)
  let src =
    {|
resource "google_compute_network" "net" {
  name   = "core-net"
  region = "us-central1"
}
resource "google_compute_subnetwork" "sub" {
  name          = "core-sub"
  network       = google_compute_network.net.id
  ip_cidr_range = "10.10.0.0/20"
  region        = "us-central1"
}
resource "google_compute_instance" "vm" {
  name         = "gce-1"
  machine_type = "e2-small"
  zone         = "us-central1-a"
  subnetwork   = google_compute_subnetwork.sub.id
  region       = "us-central1"
}
resource "google_storage_bucket" "b" {
  name     = "artifacts"
  location = "us-central1"
}
|}
  in
  let report =
    Cloudless_validate.Validate.validate_source
      ~level:Cloudless_validate.Validate.L_cloud ~file:"gcp.tf" src
  in
  check int_ "validates clean" 0
    (Cloudless_validate.Diagnostic.count_errors
       report.Cloudless_validate.Validate.diagnostics);
  let cloud =
    Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed:7 ()
  in
  let cfg = Config.parse ~file:"gcp.tf" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let plan = Plan.make ~default_region:"us-central1" ~state:State.empty instances in
  let deploy_report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
      ~plan ()
  in
  check bool_ "deploys" true (Executor.succeeded deploy_report);
  check int_ "4 resources" 4 (Cloud.resource_count cloud);
  (* wrong-type reference across gcp types is caught *)
  let bad =
    Test_fixtures.replace_substring src
      ~sub:"network       = google_compute_network.net.id"
      ~by:"network       = google_storage_bucket.b.id"
  in
  let report =
    Cloudless_validate.Validate.validate_source
      ~level:Cloudless_validate.Validate.L_types ~file:"gcp.tf" bad
  in
  check bool_ "wrong-type gcp ref caught" true
    (Cloudless_validate.Diagnostic.count_errors
       report.Cloudless_validate.Validate.diagnostics
    > 0)

let suites =
  [
    ( "edge.hcl",
      [
        Alcotest.test_case "heredoc in config" `Quick test_heredoc_in_config;
        Alcotest.test_case "splat over count" `Quick test_splat_over_counted_resource;
        Alcotest.test_case "two-level modules" `Quick test_two_level_modules;
        Alcotest.test_case "conditional count" `Quick test_conditional_count;
        Alcotest.test_case "for_each over var map" `Quick test_for_each_over_variable_map;
        Alcotest.test_case "unknown propagation corners" `Quick
          test_arithmetic_on_unknown_stays_unknown;
        Alcotest.test_case "negatives & precedence" `Quick test_negative_numbers_and_precedence;
        Alcotest.test_case "try/can laziness" `Quick test_try_function_in_config;
        Alcotest.test_case "dynamic blocks" `Quick test_dynamic_blocks;
        Alcotest.test_case "dynamic custom iterator" `Quick test_dynamic_block_custom_iterator;
      ] );
    ( "edge.chaos",
      [
        Alcotest.test_case "chaos deploy converges" `Slow test_chaos_deploy_converges;
        Alcotest.test_case "chaos deterministic" `Quick test_chaos_is_deterministic;
      ] );
    ( "edge.policy",
      [ Alcotest.test_case "drift-phase notify" `Quick test_drift_policy_notification ] );
    ( "edge.validate",
      [
        Alcotest.test_case "no false positives" `Quick
          test_no_false_positives_on_valid_corpus;
        Alcotest.test_case "gcp provider" `Quick test_gcp_provider_stack;
      ] );
  ]
