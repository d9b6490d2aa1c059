(* Tests for the knowledge base, semantic types, cross-resource rules,
   spec mining, and the staged validation pipeline (E6's machinery). *)

open Cloudless_hcl
module Schema = Cloudless_schema
module T = Schema.Semantic_type
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module Workload = Cloudless_workload.Workload
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Semantic types                                                      *)
(* ------------------------------------------------------------------ *)

let ok = function Ok () -> true | Error _ -> false

let test_semantic_basic () =
  check bool_ "region ok" true (ok (T.check T.Region (Value.Vstring "us-east-1")));
  check bool_ "region bad" false (ok (T.check T.Region (Value.Vstring "narnia")));
  check bool_ "cidr ok" true (ok (T.check T.Cidr (Value.Vstring "10.0.0.0/16")));
  check bool_ "cidr bad" false (ok (T.check T.Cidr (Value.Vstring "10.0.0.0/40")));
  check bool_ "port ok" true (ok (T.check T.Port (Value.Vint 443)));
  check bool_ "port bad" false (ok (T.check T.Port (Value.Vint 70000)));
  check bool_ "enum ok" true (ok (T.check (T.Enum [ "a"; "b" ]) (Value.Vstring "a")));
  check bool_ "enum bad" false (ok (T.check (T.Enum [ "a" ]) (Value.Vstring "c")));
  check bool_ "null always ok" true (ok (T.check T.Region Value.Vnull))

let test_semantic_resource_id_provenance () =
  let want = T.Resource_id "aws_network_interface" in
  check bool_ "right type" true
    (ok (T.check want (Value.unknown "aws_network_interface.n1.id")));
  check bool_ "wrong type rejected" false
    (ok (T.check want (Value.unknown "aws_subnet.s.id")));
  check bool_ "wrong attr rejected" false
    (ok (T.check want (Value.unknown "aws_network_interface.n1.name")));
  (* opaque strings and odd provenance shapes are accepted *)
  check bool_ "literal id ok" true (ok (T.check want (Value.Vstring "nic-123")));
  check bool_ "odd unknown ok" true (ok (T.check want (Value.unknown "fn:concat")))

let test_semantic_infer_join () =
  check string_ "infer cidr" "cidr" (T.to_string (T.infer (Value.Vstring "10.0.0.0/8")));
  check string_ "infer region" "region" (T.to_string (T.infer (Value.Vstring "eu-west-1")));
  check string_ "infer port" "port" (T.to_string (T.infer (Value.Vint 80)));
  check string_ "join widens" "string" (T.to_string (T.join T.Cidr T.Str));
  check string_ "join same" "cidr" (T.to_string (T.join T.Cidr T.Cidr))

let test_catalog () =
  check bool_ "aws_vpc known" true (Schema.Catalog.is_known "aws_vpc");
  check bool_ "40+ types" true (List.length (Schema.Catalog.known_types ()) >= 40);
  let vpc = Option.get (Schema.Catalog.find "aws_vpc") in
  check bool_ "cidr required" true
    (List.exists
       (fun (a : Schema.Resource_schema.attr) ->
         a.Schema.Resource_schema.aname = "cidr_block" && a.Schema.Resource_schema.required)
       vpc.Schema.Resource_schema.attrs);
  check (Alcotest.list string_) "force_new" [ "cidr_block" ]
    (Schema.Resource_schema.force_new_attrs vpc);
  check bool_ "azurerm provider" true
    (List.length (Schema.Catalog.of_provider "azurerm") >= 10)

(* ------------------------------------------------------------------ *)
(* Cross-resource rules                                                *)
(* ------------------------------------------------------------------ *)

let expand_src src = (Eval.expand (Config.parse ~file:"t" src)).Eval.instances

let rule_ids instances =
  Schema.Rules.check_all instances
  |> List.map (fun (v : Schema.Rules.violation) -> v.Schema.Rules.rule_id)

let test_rule_vm_nic_region () =
  let bad =
    expand_src
      {|
resource "aws_network_interface" "nic" {
  name   = "n"
  region = "us-west-2"
}
resource "aws_virtual_machine" "vm" {
  name    = "v"
  nic_ids = [aws_network_interface.nic.id]
  region  = "us-east-1"
}
|}
  in
  check bool_ "violation" true (List.mem "vm-nic-same-region" (rule_ids bad));
  let good =
    expand_src
      {|
resource "aws_network_interface" "nic" {
  name   = "n"
  region = "us-east-1"
}
resource "aws_virtual_machine" "vm" {
  name    = "v"
  nic_ids = [aws_network_interface.nic.id]
  region  = "us-east-1"
}
|}
  in
  check bool_ "no violation" false (List.mem "vm-nic-same-region" (rule_ids good))

(* A recorded NIC's id is known, so a reference to it is the id, not an
   unknown: the rule reads the NIC's row through it, and fires with the
   state as it does without it. *)
let test_rule_vm_nic_region_with_state () =
  let module Cli = Cloudless.Cli in
  let dir = Filename.temp_dir "cloudless_rules" "" in
  let file = Filename.concat dir "main.tf" and state_path = Filename.concat dir "state.cls" in
  let nic = "resource \"aws_network_interface\" \"nic\" {\n  name   = \"n\"\n  region = \"us-east-1\"\n}\n" in
  let vm =
    "resource \"aws_virtual_machine\" \"vm\" {\n  name    = \"v\"\n  nic_ids = [aws_network_interface.nic.id]\n  region  = \"us-west-2\"\n}\n"
  in
  let io out = { Cli.out = Buffer.add_string out; err = Buffer.add_string out } in
  Cloudless.Io_util.write_file file nic;
  check int_ "the NIC applies" 0 (Cli.apply ~io:(io (Buffer.create 64)) ~file ~state_path ());
  Cloudless.Io_util.write_file file (nic ^ vm);
  List.iter
    (fun (name, state_path) ->
      let out = Buffer.create 256 in
      check int_ (name ^ ": validate exits 1") 1 (Cli.validate ~io:(io out) ~file ~state_path ());
      check bool_ (name ^ ": vm-nic-same-region") true
        (Test_errors.contains ~sub:"error[cloud-rules/vm-nic-same-region]" (Buffer.contents out)))
    [ ("with the state", state_path); ("without it", Filename.concat dir "none.cls") ]

let test_rule_password_flag () =
  let bad =
    expand_src
      {|
resource "azurerm_linux_virtual_machine" "vm" {
  name           = "v"
  location       = "eastus"
  size           = "B2s"
  nic_ids        = []
  admin_password = "secret"
}
|}
  in
  check bool_ "violation" true (List.mem "password-flag" (rule_ids bad));
  let good =
    expand_src
      {|
resource "azurerm_linux_virtual_machine" "vm" {
  name             = "v"
  location         = "eastus"
  size             = "B2s"
  nic_ids          = []
  admin_password   = "secret"
  disable_password = false
}
|}
  in
  check bool_ "ok with flag" false (List.mem "password-flag" (rule_ids good))

let test_rule_peering_overlap () =
  let bad =
    expand_src
      {|
resource "aws_vpc" "a" { cidr_block = "10.0.0.0/16" }
resource "aws_vpc" "b" { cidr_block = "10.0.128.0/17" }
resource "aws_vpc_peering_connection" "p" {
  vpc_id      = aws_vpc.a.id
  peer_vpc_id = aws_vpc.b.id
}
|}
  in
  check bool_ "overlap flagged" true (List.mem "peering-no-overlap" (rule_ids bad))

let test_rule_subnet_containment () =
  let bad =
    expand_src
      {|
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "192.168.0.0/24"
}
|}
  in
  check bool_ "outside vpc flagged" true
    (List.mem "subnet-within-network" (rule_ids bad))

let test_rule_sibling_overlap () =
  let bad =
    expand_src
      {|
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s1" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_subnet" "s2" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.128/25"
}
|}
  in
  check bool_ "sibling overlap flagged" true
    (List.mem "sibling-subnets-disjoint" (rule_ids bad))

let test_rule_asg () =
  let bad =
    expand_src
      {|
resource "aws_autoscaling_group" "g" {
  name             = "g"
  min_size         = 5
  max_size         = 2
  desired_capacity = 10
}
|}
  in
  let ids = rule_ids bad in
  check bool_ "asg flagged" true (List.mem "asg-sizes" ids)

(* ------------------------------------------------------------------ *)
(* Validation pipeline levels                                          *)
(* ------------------------------------------------------------------ *)

let errors_at level src =
  let report = Validate.validate_source ~level ~file:"t" src in
  Diagnostic.count_errors report.Validate.diagnostics

let test_pipeline_clean_config () =
  let src = Workload.web_tier () in
  check int_ "web tier validates clean" 0 (errors_at Validate.L_cloud src)

let test_pipeline_syntax () =
  let src = "resource \"a\" {" in
  check bool_ "syntax error caught" true (errors_at Validate.L_syntax src > 0)

let test_pipeline_references () =
  let src = {|
resource "aws_vpc" "v" { cidr_block = var.missing }
|} in
  check int_ "syntax level misses it" 0 (errors_at Validate.L_syntax src);
  check bool_ "reference level catches it" true
    (errors_at Validate.L_references src > 0)

let test_pipeline_types () =
  (* wrong-type reference: NIC list pointing at a subnet *)
  let src =
    {|
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
  region     = "us-east-1"
}
resource "aws_virtual_machine" "vm" {
  name    = "vm"
  nic_ids = [aws_subnet.s.id]
  region  = "us-east-1"
}
|}
  in
  check int_ "reference level passes" 0 (errors_at Validate.L_references src);
  check bool_ "type level catches wrong-type ref" true
    (errors_at Validate.L_types src > 0)

let test_pipeline_cloud_rules () =
  let src = Workload.misconfigured Workload.M_region_mismatch in
  check int_ "type level passes region mismatch" 0 (errors_at Validate.L_types src);
  check bool_ "cloud level catches it" true (errors_at Validate.L_cloud src > 0)

let test_pipeline_catch_rates () =
  (* every injected misconfiguration must be caught at the full level;
     syntax-only must catch (almost) none of them *)
  let corpus = Workload.misconfig_corpus () in
  let caught level =
    List.filter
      (fun (_, src, injected) -> injected && errors_at level src > 0)
      corpus
    |> List.length
  in
  let total = List.length corpus - 1 in
  check int_ "full pipeline catches all" total (caught Validate.L_cloud);
  check bool_ "syntax catches few" true (caught Validate.L_syntax <= 1);
  check bool_ "levels are monotone" true
    (caught Validate.L_syntax <= caught Validate.L_references
    && caught Validate.L_references <= caught Validate.L_types
    && caught Validate.L_types <= caught Validate.L_cloud);
  (* the control program stays clean at every level *)
  let control_src =
    match corpus with (_, src, false) :: _ -> src | _ -> assert false
  in
  check int_ "control clean" 0 (errors_at Validate.L_cloud control_src)

(* ------------------------------------------------------------------ *)
(* Spec mining                                                         *)
(* ------------------------------------------------------------------ *)

let test_mining_always_set_and_types () =
  let corpus =
    List.init 5 (fun i ->
        expand_src
          (Printf.sprintf
             {|
resource "aws_s3_bucket" "b" {
  bucket     = "logs-%d"
  region     = "us-east-1"
  versioning = true
}
|}
             i))
  in
  let specs = Schema.Mining.mine ~min_support:3 corpus in
  let has_always attr =
    List.exists
      (function
        | Schema.Mining.Always_set { rtype = "aws_s3_bucket"; attr = a; _ } ->
            a = attr
        | _ -> false)
      specs
  in
  check bool_ "versioning always set" true (has_always "versioning");
  check bool_ "region typed" true
    (List.exists
       (function
         | Schema.Mining.Has_type { attr = "region"; ty = T.Region; _ } -> true
         | _ -> false)
       specs)

let test_mining_deviation_detection () =
  let corpus =
    List.init 4 (fun i ->
        expand_src
          (Printf.sprintf
             {|
resource "aws_s3_bucket" "b" {
  bucket     = "logs-%d"
  versioning = true
}
|}
             i))
  in
  let specs = Schema.Mining.mine ~min_support:3 corpus in
  let newcomer =
    expand_src {|
resource "aws_s3_bucket" "b" { bucket = "new-bucket" }
|}
  in
  let deviations = Schema.Mining.check_deviations specs newcomer in
  check bool_ "missing versioning flagged" true
    (List.exists
       (fun (d : Schema.Mining.deviation) ->
         Test_fixtures.contains_substring ~sub:"versioning"
           (Schema.Mining.deviation_to_string d))
       deviations)

let test_mining_promote_schema () =
  let corpus =
    List.init 4 (fun i ->
        expand_src
          (Printf.sprintf
             {|
resource "custom_widget" "w" {
  name   = "w-%d"
  region = "us-east-1"
  size   = %d
}
|}
             i (i + 1)))
  in
  let specs = Schema.Mining.mine ~min_support:3 corpus in
  match Schema.Mining.promote_to_schema specs ~rtype:"custom_widget" with
  | Some schema ->
      check string_ "provider inferred" "custom" schema.Schema.Resource_schema.provider;
      check bool_ "has attrs" true (List.length schema.Schema.Resource_schema.attrs >= 3)
  | None -> Alcotest.fail "expected a schema"

let suites =
  [
    ( "schema.types",
      [
        Alcotest.test_case "basic checks" `Quick test_semantic_basic;
        Alcotest.test_case "resource-id provenance" `Quick test_semantic_resource_id_provenance;
        Alcotest.test_case "infer & join" `Quick test_semantic_infer_join;
        Alcotest.test_case "catalog" `Quick test_catalog;
      ] );
    ( "schema.rules",
      [
        Alcotest.test_case "vm/nic region" `Quick test_rule_vm_nic_region;
        Alcotest.test_case "vm/nic region against a state" `Quick
          test_rule_vm_nic_region_with_state;
        Alcotest.test_case "password flag" `Quick test_rule_password_flag;
        Alcotest.test_case "peering overlap" `Quick test_rule_peering_overlap;
        Alcotest.test_case "subnet containment" `Quick test_rule_subnet_containment;
        Alcotest.test_case "sibling overlap" `Quick test_rule_sibling_overlap;
        Alcotest.test_case "asg sizes" `Quick test_rule_asg;
      ] );
    ( "validate.pipeline",
      [
        Alcotest.test_case "clean config" `Quick test_pipeline_clean_config;
        Alcotest.test_case "syntax stage" `Quick test_pipeline_syntax;
        Alcotest.test_case "reference stage" `Quick test_pipeline_references;
        Alcotest.test_case "type stage" `Quick test_pipeline_types;
        Alcotest.test_case "cloud-rule stage" `Quick test_pipeline_cloud_rules;
        Alcotest.test_case "catch rates by level" `Quick test_pipeline_catch_rates;
      ] );
    ( "schema.mining",
      [
        Alcotest.test_case "always-set & types" `Quick test_mining_always_set_and_types;
        Alcotest.test_case "deviations" `Quick test_mining_deviation_detection;
        Alcotest.test_case "promote to schema" `Quick test_mining_promote_schema;
      ] );
  ]
