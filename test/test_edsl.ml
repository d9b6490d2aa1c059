(* Tests for the Pulumi-style imperative front-end (§2.1). *)

open Cloudless_hcl
module Edsl = Cloudless_edsl.Edsl
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let web_program ctx =
  let vpc =
    Edsl.resource ctx "aws_vpc" "main"
      [ ("cidr_block", Edsl.str "10.0.0.0/16"); ("region", Edsl.str "us-east-1") ]
  in
  (* ordinary OCaml loops instead of count *)
  let subnets =
    List.init 3 (fun i ->
        Edsl.resource ctx "aws_subnet" (Printf.sprintf "s%d" i)
          [
            ("vpc_id", Edsl.ref_ vpc "id");
            ("cidr_block", Edsl.cidrsubnet (Edsl.ref_ vpc "cidr_block") 8 i);
            ("region", Edsl.str "us-east-1");
          ])
  in
  List.iteri
    (fun i subnet ->
      ignore
        (Edsl.resource ctx "aws_instance" (Printf.sprintf "web%d" i)
           [
             ("ami", Edsl.str "ami-edsl");
             ("instance_type", Edsl.str "t3.small");
             ("subnet_id", Edsl.ref_ subnet "id");
             ("region", Edsl.str "us-east-1");
             ( "tags",
               Edsl.map_ [ ("Name", Edsl.interp [ `S "web-"; `E (Edsl.int_ i) ]) ]
             );
           ]))
    subnets;
  Edsl.export ctx "vpc_id" (Edsl.ref_ vpc "id")

let test_registration () =
  let cfg = Edsl.program web_program in
  check int_ "7 resources" 7 (List.length cfg.Config.resources);
  check int_ "1 output" 1 (List.length cfg.Config.outputs);
  (* references render as proper traversals *)
  let s0 = Option.get (Config.find_resource cfg "aws_subnet" "s0") in
  check string_ "vpc_id is a reference" "aws_vpc.main.id"
    (Printer.expr_to_string (Option.get (Ast.attr s0.Config.rbody "vpc_id")))

let test_validates_and_prints () =
  let cfg = Edsl.program web_program in
  let report = Validate.validate_config cfg in
  check int_ "valid" 0 (Diagnostic.count_errors report.Validate.diagnostics);
  (* the imperative program can be rendered to declarative HCL and
     round-trips *)
  let printed = Config.to_string cfg in
  let reparsed = Config.parse ~file:"edsl.tf" printed in
  check int_ "round-trips" 7 (List.length reparsed.Config.resources)

let test_deploys () =
  let cfg = Edsl.program web_program in
  let cloud =
    Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed:81 ()
  in
  let result = Eval.expand cfg in
  let plan = Plan.make ~state:State.empty result.Eval.instances in
  let report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
      ~plan ()
  in
  check bool_ "deploys" true (Executor.succeeded report);
  check int_ "7 in cloud" 7 (Cloud.resource_count cloud);
  (* outputs resolve after deployment *)
  let env =
    {
      Eval.default_env with
      Eval.state_lookup = (fun a -> State.lookup report.Executor.state a);
    }
  in
  let result = Eval.expand ~env cfg in
  match List.assoc "vpc_id" result.Eval.outputs with
  | Value.Vstring id -> check bool_ "output is a cloud id" true (String.length id > 3)
  | v -> Alcotest.failf "expected id, got %a" Value.pp v

let test_duplicate_registration_rejected () =
  match
    Edsl.program (fun ctx ->
        ignore (Edsl.resource ctx "aws_vpc" "x" []);
        ignore (Edsl.resource ctx "aws_vpc" "x" []))
  with
  | exception Cloudless_error.Error { code = "structure-error"; _ } -> ()
  | _ -> Alcotest.fail "expected duplicate-registration error"

let test_depends_on () =
  let cfg =
    Edsl.program (fun ctx ->
        let a = Edsl.resource ctx "aws_vpc" "a" [ ("cidr_block", Edsl.str "10.0.0.0/16") ] in
        ignore
          (Edsl.resource ctx "aws_eip" "b" ~depends_on:[ a ]
             [ ("region", Edsl.str "us-east-1") ]))
  in
  let b = Option.get (Config.find_resource cfg "aws_eip" "b") in
  check
    (Alcotest.list (Alcotest.pair string_ string_))
    "depends_on recorded"
    [ ("aws_vpc", "a") ]
    b.Config.rdepends_on

let test_conditional_infrastructure () =
  (* the imperative selling point: arbitrary host-language logic *)
  let build ~with_cache =
    Edsl.program (fun ctx ->
        ignore
          (Edsl.resource ctx "aws_instance" "app"
             [ ("ami", Edsl.str "a"); ("instance_type", Edsl.str "t3.small") ]);
        if with_cache then
          ignore
            (Edsl.resource ctx "aws_elasticache_cluster" "cache"
               [
                 ("cluster_id", Edsl.str "app-cache");
                 ("engine", Edsl.str "redis");
               ]))
  in
  check int_ "without cache" 1 (List.length (build ~with_cache:false).Config.resources);
  check int_ "with cache" 2 (List.length (build ~with_cache:true).Config.resources)

let suites =
  [
    ( "edsl",
      [
        Alcotest.test_case "registration" `Quick test_registration;
        Alcotest.test_case "validates & prints" `Quick test_validates_and_prints;
        Alcotest.test_case "deploys" `Quick test_deploys;
        Alcotest.test_case "duplicate rejected" `Quick test_duplicate_registration_rejected;
        Alcotest.test_case "depends_on" `Quick test_depends_on;
        Alcotest.test_case "conditional infra" `Quick test_conditional_infrastructure;
      ] );
  ]
