(* Tests for HCL evaluation and expansion: values, functions, unknowns,
   count/for_each, modules, locals, data sources. *)

open Cloudless_hcl
module Smap = Value.Smap

let check = Alcotest.check
let string_ = Alcotest.string
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let value = Alcotest.testable Value.pp Value.equal

let ev ?vars src =
  let vars =
    match vars with
    | None -> Smap.empty
    | Some kvs -> Smap.of_seq (List.to_seq kvs)
  in
  Eval.eval_string ~vars src

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  check value "int add" (Value.Vint 7) (ev "1 + 2 * 3");
  check value "mixed float" (Value.Vfloat 3.5) (ev "7 / 2");
  check value "exact div stays int" (Value.Vint 3) (ev "6 / 2");
  check value "mod" (Value.Vint 1) (ev "7 % 3");
  check value "neg mod is positive" (Value.Vint 2) (ev "-1 % 3");
  check value "unary" (Value.Vint (-5)) (ev "-(2 + 3)")

let test_strings () =
  check value "concat op" (Value.Vstring "ab") (ev {|"a" + "b"|});
  check value "template" (Value.Vstring "x-3-y") (ev {|"x-${1 + 2}-y"|});
  check value "single interp keeps type" (Value.Vint 3) (ev {|"${1 + 2}"|})

let test_bool_logic () =
  check value "and" (Value.Vbool false) (ev "true && false");
  check value "or shortcircuit" (Value.Vbool true) (ev "true || undefined_is_not_evaluated")
    (* note: RHS never evaluated *);
  check value "cmp" (Value.Vbool true) (ev "2 >= 2");
  check value "ternary" (Value.Vint 1) (ev "2 > 1 ? 1 : 2")

let test_collections () =
  check value "list index" (Value.Vint 20) (ev "[10, 20, 30][1]");
  check value "object attr" (Value.Vint 5) (ev "{ a = 5 }.a");
  check value "nested" (Value.Vstring "deep") (ev {|{ a = { b = ["deep"] } }.a.b[0]|})

let test_for_exprs () =
  check value "for list"
    (Value.Vlist [ Value.Vint 2; Value.Vint 4; Value.Vint 6 ])
    (ev "[for x in [1, 2, 3] : x * 2]");
  check value "for with cond"
    (Value.Vlist [ Value.Vint 2 ])
    (ev "[for x in [1, 2, 3] : x if x % 2 == 0]");
  check value "for map"
    (Value.of_assoc [ ("a", Value.Vint 1); ("b", Value.Vint 2) ])
    (ev {|{for k, v in { a = 1, b = 2 } : k => v}|});
  check value "for over map to list"
    (Value.Vlist [ Value.Vstring "a=1"; Value.Vstring "b=2" ])
    (ev {|[for k, v in { a = 1, b = 2 } : "${k}=${v}"]|})

let test_vars () =
  check value "var lookup" (Value.Vstring "web")
    (ev ~vars:[ ("name", Value.Vstring "web") ] "var.name");
  match ev "var.missing" with
  | exception Cloudless_error.Error { code = "eval-error"; message = msg; _ } ->
      check bool_ "mentions var" true
        (Test_fixtures.contains_substring ~sub:"missing" msg)
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let test_string_fns () =
  check value "upper" (Value.Vstring "ABC") (ev {|upper("abc")|});
  check value "join" (Value.Vstring "a,b") (ev {|join(",", ["a", "b"])|});
  check value "split"
    (Value.Vlist [ Value.Vstring "a"; Value.Vstring "b"; Value.Vstring "" ])
    (ev {|split(",", "a,b,")|});
  check value "replace" (Value.Vstring "x-y-z") (ev {|replace("x.y.z", ".", "-")|});
  check value "format pads" (Value.Vstring "vm-03") (ev {|format("vm-%02d", 3)|});
  check value "format verbs" (Value.Vstring "a=1 b=x 100%")
    (ev {|format("a=%d b=%s 100%%", 1, "x")|});
  check value "substr" (Value.Vstring "bcd") (ev {|substr("abcde", 1, 3)|})

let test_collection_fns () =
  check value "length str" (Value.Vint 3) (ev {|length("abc")|});
  check value "length list" (Value.Vint 2) (ev "length([1, 2])");
  check value "element wraps" (Value.Vint 1) (ev "element([1, 2, 3], 3)");
  check value "concat"
    (Value.Vlist [ Value.Vint 1; Value.Vint 2; Value.Vint 3 ])
    (ev "concat([1], [2, 3])");
  check value "contains" (Value.Vbool true) (ev {|contains(["a"], "a")|});
  check value "keys"
    (Value.Vlist [ Value.Vstring "a"; Value.Vstring "b" ])
    (ev "keys({ a = 1, b = 2 })");
  check value "lookup default" (Value.Vint 9) (ev {|lookup({ a = 1 }, "z", 9)|});
  check value "merge right wins" (Value.Vint 2)
    (ev {|merge({ a = 1 }, { a = 2 }).a|});
  check value "flatten"
    (Value.Vlist [ Value.Vint 1; Value.Vint 2; Value.Vint 3 ])
    (ev "flatten([[1], [2, [3]]])");
  check value "distinct"
    (Value.Vlist [ Value.Vint 1; Value.Vint 2 ])
    (ev "distinct([1, 2, 1])");
  check value "range"
    (Value.Vlist [ Value.Vint 0; Value.Vint 2 ])
    (ev "range(0, 4, 2)");
  check value "sum" (Value.Vint 6) (ev "sum([1, 2, 3])");
  check value "zipmap" (Value.Vint 1) (ev {|zipmap(["a"], [1]).a|})

let test_cidr_fns () =
  check value "cidrsubnet" (Value.Vstring "10.0.3.0/24")
    (ev {|cidrsubnet("10.0.0.0/16", 8, 3)|});
  check value "cidrhost" (Value.Vstring "10.0.0.5")
    (ev {|cidrhost("10.0.0.0/16", 5)|});
  check value "cidrnetmask" (Value.Vstring "255.255.0.0")
    (ev {|cidrnetmask("10.0.0.0/16")|})

let test_encoding_fns () =
  check value "jsonencode" (Value.Vstring {|{"a":1}|}) (ev "jsonencode({ a = 1 })");
  check value "b64 roundtrip" (Value.Vstring "hello world")
    (ev {|base64decode(base64encode("hello world"))|});
  (* hash is deterministic *)
  check value "hash deterministic" (ev {|hash("abc")|}) (ev {|hash("abc")|})

(* ------------------------------------------------------------------ *)
(* Unknown propagation                                                 *)
(* ------------------------------------------------------------------ *)

let test_unknowns () =
  let scope = Eval.make_scope () in
  ignore scope;
  (* Build via expansion: referencing a computed attribute gives unknown *)
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "s" {
  vpc_id = aws_vpc.main.id
  cidr   = aws_vpc.main.cidr_block
}
output "subnet_vpc" { value = aws_subnet.s.vpc_id }
output "known" { value = aws_subnet.s.cidr }
|}
  in
  let result = Eval.expand cfg in
  let subnet =
    List.find
      (fun i -> i.Eval.addr.Addr.rtype = "aws_subnet")
      result.Eval.instances
  in
  (match Smap.find "vpc_id" subnet.Eval.attrs with
  | Value.Vunknown p -> check string_ "provenance" "aws_vpc.main.id" p
  | v -> Alcotest.failf "expected unknown, got %a" Value.pp v);
  (* configured attribute resolves to its configured value *)
  check value "known attr flows"
    (Value.Vstring "10.0.0.0/16")
    (Smap.find "cidr" subnet.Eval.attrs);
  (* unknown arithmetic stays unknown *)
  check bool_ "output unknown" true
    (Value.is_unknown (List.assoc "subnet_vpc" result.Eval.outputs))

let test_unknown_state_resolution () =
  (* with prior state, the computed attribute becomes known *)
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_vpc" "main" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" { vpc_id = aws_vpc.main.id }
|}
  in
  let state addr =
    if Addr.to_string addr = "aws_vpc.main" then
      Some (Cloudless_hcl.Recorded.of_map (Smap.singleton "id" (Value.Vstring "vpc-42")))
    else None
  in
  let env = { Eval.default_env with Eval.state_lookup = state } in
  let result = Eval.expand ~env cfg in
  let subnet =
    List.find (fun i -> i.Eval.addr.Addr.rtype = "aws_subnet") result.Eval.instances
  in
  check value "resolved from state" (Value.Vstring "vpc-42")
    (Smap.find "vpc_id" subnet.Eval.attrs)

(* ------------------------------------------------------------------ *)
(* Expansion: count, for_each, locals, data, modules                   *)
(* ------------------------------------------------------------------ *)

let addr_strings result =
  List.map (fun i -> Addr.to_string i.Eval.addr) result.Eval.instances

let test_expand_count () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_instance" "web" {
  count = 3
  name  = "web-${count.index}"
}
|}
  in
  let result = Eval.expand cfg in
  check (Alcotest.list string_) "addresses"
    [ "aws_instance.web[0]"; "aws_instance.web[1]"; "aws_instance.web[2]" ]
    (addr_strings result);
  let names =
    List.map (fun i -> Smap.find "name" i.Eval.attrs) result.Eval.instances
  in
  check (Alcotest.list value) "names"
    [ Value.Vstring "web-0"; Value.Vstring "web-1"; Value.Vstring "web-2" ]
    names

let test_expand_count_zero () =
  let cfg =
    Config.parse ~file:"t" {|
resource "aws_instance" "web" { count = 0 }
|}
  in
  check int_ "no instances" 0 (List.length (Eval.expand cfg).Eval.instances)

let test_expand_for_each () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_subnet" "s" {
  for_each = { east = "10.0.1.0/24", west = "10.0.2.0/24" }
  cidr     = each.value
  zone     = each.key
}
|}
  in
  let result = Eval.expand cfg in
  check (Alcotest.list string_) "addresses"
    [ {|aws_subnet.s["east"]|}; {|aws_subnet.s["west"]|} ]
    (addr_strings result);
  let east = List.hd result.Eval.instances in
  check value "each.value" (Value.Vstring "10.0.1.0/24")
    (Smap.find "cidr" east.Eval.attrs)

let test_expand_locals_chain () =
  let cfg =
    Config.parse ~file:"t"
      {|
locals {
  base   = "10.0.0.0/16"
  subnet = cidrsubnet(local.base, 8, 1)
}
resource "aws_subnet" "s" { cidr = local.subnet }
|}
  in
  let result = Eval.expand cfg in
  let s = List.hd result.Eval.instances in
  check value "chained locals" (Value.Vstring "10.0.1.0/24")
    (Smap.find "cidr" s.Eval.attrs)

let test_expand_local_cycle () =
  let cfg =
    Config.parse ~file:"t"
      {|
locals {
  a = local.b
  b = local.a
}
resource "x_y" "r" { v = local.a }
|}
  in
  match Eval.expand cfg with
  | exception Cloudless_error.Error { code = "eval-error"; message = msg; _ } ->
      check bool_ "cycle reported" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected cycle error"

let test_expand_data_source () =
  let cfg = Config.parse ~file:"t" Test_fixtures.figure2 in
  let data_resolver ~rtype ~name ~args:_ =
    if rtype = "aws_region" && name = "current" then
      Some (Smap.singleton "name" (Value.Vstring "us-east-1"))
    else None
  in
  let env = { Eval.default_env with Eval.data_resolver } in
  let result = Eval.expand ~env cfg in
  let nic =
    List.find
      (fun i -> i.Eval.addr.Addr.rtype = "aws_network_interface")
      result.Eval.instances
  in
  check value "location from data source" (Value.Vstring "us-east-1")
    (Smap.find "location" nic.Eval.attrs);
  let vm =
    List.find
      (fun i -> i.Eval.addr.Addr.rtype = "aws_virtual_machine")
      result.Eval.instances
  in
  check value "variable default" (Value.Vstring "cloudless")
    (Smap.find "name" vm.Eval.attrs);
  (* the vm's nic_ids references a computed attr -> list with unknown *)
  match Smap.find "nic_ids" vm.Eval.attrs with
  | Value.Vlist [ Value.Vunknown p ] ->
      check string_ "provenance" "aws_network_interface.n1.id" p
  | v -> Alcotest.failf "expected [unknown], got %a" Value.pp v

let test_expand_dependency_order () =
  (* declared out of order; expansion must still succeed via topo sort *)
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_subnet" "s" { vpc = aws_vpc.v.cidr }
resource "aws_vpc" "v" { cidr = "10.0.0.0/16" }
|}
  in
  let result = Eval.expand cfg in
  check (Alcotest.list string_) "vpc first"
    [ "aws_vpc.v"; "aws_subnet.s" ]
    (addr_strings result);
  let s = List.find (fun i -> i.Eval.addr.Addr.rtype = "aws_subnet") result.Eval.instances in
  check value "resolved" (Value.Vstring "10.0.0.0/16") (Smap.find "vpc" s.Eval.attrs);
  check int_ "ref dep recorded" 1 (List.length s.Eval.ref_deps)

let test_expand_dependency_cycle () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "a_t" "x" { v = b_t.y.id }
resource "b_t" "y" { v = a_t.x.id }
|}
  in
  match Eval.expand cfg with
  | exception Cloudless_error.Error { code = "eval-error"; message = msg; _ } ->
      check bool_ "cycle error" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected cycle error"

let test_expand_module () =
  let network_module =
    Config.parse ~file:"network.tf"
      {|
variable "cidr" {}
resource "aws_vpc" "this" { cidr_block = var.cidr }
resource "aws_subnet" "a" {
  cidr = cidrsubnet(var.cidr, 8, 0)
  vpc  = aws_vpc.this.cidr_block
}
output "subnet_cidr" { value = aws_subnet.a.cidr }
|}
  in
  let root =
    Config.parse ~file:"main.tf"
      {|
module "net" {
  source = "./network"
  cidr   = "10.8.0.0/16"
}
resource "aws_instance" "web" {
  subnet = module.net.subnet_cidr
}
|}
  in
  let env =
    {
      Eval.default_env with
      Eval.module_registry =
        (fun src -> if src = "./network" then Some network_module else None);
    }
  in
  let result = Eval.expand ~env root in
  check (Alcotest.list string_) "instances"
    [
      "module.net.aws_vpc.this";
      "module.net.aws_subnet.a";
      "aws_instance.web";
    ]
    (addr_strings result);
  let web =
    List.find (fun i -> i.Eval.addr.Addr.rtype = "aws_instance") result.Eval.instances
  in
  check value "module output flows" (Value.Vstring "10.8.0.0/24")
    (Smap.find "subnet" web.Eval.attrs)

let test_expand_module_count () =
  let child =
    Config.parse ~file:"c.tf"
      {|
variable "i" { default = 0 }
resource "x_r" "r" { idx = var.i }
output "o" { value = var.i }
|}
  in
  let root =
    Config.parse ~file:"main.tf"
      {|
module "m" {
  source = "./c"
  count  = 2
  i      = count.index
}
output "all" { value = module.m[*].o }
|}
  in
  let env =
    {
      Eval.default_env with
      Eval.module_registry = (fun _ -> Some child);
    }
  in
  let result = Eval.expand ~env root in
  check int_ "two instances" 2 (List.length result.Eval.instances);
  check value "splat over module"
    (Value.Vlist [ Value.Vint 0; Value.Vint 1 ])
    (List.assoc "all" result.Eval.outputs)

let test_expand_required_variable () =
  let cfg = Config.parse ~file:"t" {|
variable "req" {}
resource "x_y" "r" { v = var.req }
|} in
  (match Eval.expand cfg with
  | exception Cloudless_error.Error { code = "eval-error"; message = msg; _ } ->
      check bool_ "required var error" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected error");
  let vars = Smap.singleton "req" (Value.Vint 1) in
  let result = Eval.expand ~vars cfg in
  check int_ "supplied" 1 (List.length result.Eval.instances)

let test_nested_blocks_to_lists () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_security_group" "sg" {
  name = "sg1"
  ingress {
    port = 80
  }
  ingress {
    port = 443
  }
}
|}
  in
  let result = Eval.expand cfg in
  let sg = List.hd result.Eval.instances in
  match Smap.find "ingress" sg.Eval.attrs with
  | Value.Vlist [ Value.Vmap a; Value.Vmap b ] ->
      check value "first port" (Value.Vint 80) (Smap.find "port" a);
      check value "second port" (Value.Vint 443) (Smap.find "port" b)
  | v -> Alcotest.failf "expected list of blocks, got %a" Value.pp v

(* Property: count expansion always yields exactly n instances with
   distinct addresses. *)
let prop_count_instances =
  QCheck.Test.make ~count:50 ~name:"count yields n distinct instances"
    QCheck.(int_range 0 25)
    (fun n ->
      let src =
        Printf.sprintf
          "resource \"x_y\" \"r\" {\n  count = %d\n  i = count.index\n}\n" n
      in
      let result = Eval.expand (Config.parse ~file:"t" src) in
      let addrs = List.map (fun i -> Addr.to_string i.Eval.addr) result.Eval.instances in
      List.length addrs = n
      && List.length (List.sort_uniq compare addrs) = n)

let test_extra_string_fns () =
  check value "title" (Value.Vstring "Hello Wide World")
    (ev {|title("hello wide world")|});
  check value "trimprefix hit" (Value.Vstring "bucket")
    (ev {|trimprefix("my-bucket", "my-")|});
  check value "trimprefix miss" (Value.Vstring "bucket")
    (ev {|trimprefix("bucket", "my-")|});
  check value "trimsuffix" (Value.Vstring "my")
    (ev {|trimsuffix("my-bucket", "-bucket")|})

let test_extra_collection_fns () =
  check value "chunklist"
    (Value.Vlist
       [
         Value.Vlist [ Value.Vint 1; Value.Vint 2 ];
         Value.Vlist [ Value.Vint 3; Value.Vint 4 ];
         Value.Vlist [ Value.Vint 5 ];
       ])
    (ev "chunklist([1, 2, 3, 4, 5], 2)");
  check value "one singleton" (Value.Vint 7) (ev "one([7])");
  check value "one empty" Value.Vnull (ev "one([])");
  check value "transpose"
    (Value.of_assoc
       [
         ("dev", Value.Vlist [ Value.Vstring "alice" ]);
         ("prod", Value.Vlist [ Value.Vstring "alice"; Value.Vstring "bob" ]);
       ])
    (ev {|transpose({ alice = ["dev", "prod"], bob = ["prod"] })|})

(* ------------------------------------------------------------------ *)
(* Compile once, instantiate per state: the same expansion as the      *)
(* one-pass expander                                                   *)
(* ------------------------------------------------------------------ *)

module Workload = Cloudless_workload.Workload
module Diagnostic = Cloudless_error.Diagnostic

(* A state: rows keyed by rendered address. *)
type rows = (string, Value.t Smap.t) Hashtbl.t

(* Every module source resolves to one small child, so module calls
   expand (arguments it does not declare are ignored). *)
let child_module =
  Config.parse ~file:"child.tf"
    {|
variable "cidr" { default = "10.9.0.0/16" }
resource "aws_vpc" "this" { cidr_block = var.cidr }
output "subnet_cidr" { value = aws_vpc.this.cidr_block }
output "o" { value = aws_vpc.this.id }
output "result" { value = 1 }
|}

let env_of (rows : rows) =
  {
    (Cloudless_plan.Plan.env_for Cloudless_state.State.empty) with
    Eval.state_lookup =
      (fun a ->
        Option.map Cloudless_hcl.Recorded.of_map
          (Hashtbl.find_opt rows (Addr.to_string a)));
    module_registry = (fun _ -> Some child_module);
  }

type outcome = Expanded of Eval.expansion_result | Failed of Diagnostic.t

let outcome f =
  match f () with r -> Expanded r | exception Cloudless_error.Error d -> Failed d

(* Instances that read the same: their attributes are compared as
   merged with their rows, since two expansions may meet a row that one
   of them has read whole and the other not. *)
let same_instance (a : Eval.instance) (b : Eval.instance) =
  Addr.equal a.Eval.addr b.Eval.addr
  && String.equal a.Eval.provider b.Eval.provider
  && Smap.equal Value.equal (Eval.merged a) (Eval.merged b)
  && String.equal
       (Value.show (Value.Vmap (Eval.merged a)))
       (Value.show (Value.Vmap (Eval.merged b)))
  && a.Eval.configured = b.Eval.configured
  && List.equal Addr.equal a.Eval.explicit_deps b.Eval.explicit_deps
  && List.equal Addr.equal a.Eval.ref_deps b.Eval.ref_deps
  && a.Eval.lifecycle = b.Eval.lifecycle
  && a.Eval.ispan = b.Eval.ispan

let same_output (n, v) (n', v') =
  String.equal n n' && Value.equal v v'
  && String.equal (Value.show v) (Value.show v')

let same_outcome x y =
  match (x, y) with
  | Expanded a, Expanded b ->
      List.equal same_instance a.Eval.instances b.Eval.instances
      && List.equal same_output a.Eval.outputs b.Eval.outputs
  | Failed d, Failed e ->
      d.Diagnostic.stage = e.Diagnostic.stage
      && String.equal d.Diagnostic.code e.Diagnostic.code
      && d.Diagnostic.span = e.Diagnostic.span
      && String.equal d.Diagnostic.message e.Diagnostic.message
  | Expanded _, Failed _ | Failed _, Expanded _ -> false

let show_outcome = function
  | Failed d -> Diagnostic.to_string d
  | Expanded r ->
      String.concat "\n"
        (List.map
           (fun (i : Eval.instance) ->
             Printf.sprintf "%s %s <- %s"
               (Addr.to_string i.Eval.addr)
               (Value.show (Value.Vmap (Eval.merged i)))
               (String.concat ","
                  (List.map Addr.to_string (i.Eval.ref_deps @ i.Eval.explicit_deps))))
           r.Eval.instances
        @ List.map (fun (n, v) -> n ^ " = " ^ Value.show v) r.Eval.outputs)

(* A row as an apply would leave it: unknowns settled, an [id] and an
   [arn] computed. *)
let row_of (i : Eval.instance) =
  let rec settle = function
    | Value.Vunknown p -> Value.Vstring ("known:" ^ p)
    | Value.Vlist vs -> Value.Vlist (List.map settle vs)
    | Value.Vmap m -> Value.Vmap (Smap.map settle m)
    | v -> v
  in
  let addr = Addr.to_string i.Eval.addr in
  Smap.map settle i.Eval.attrs
  |> Smap.update "id" (function
       | Some v -> Some (settle v)
       | None -> Some (Value.Vstring (addr ^ "-id")))
  |> Smap.add "arn" (Value.Vstring ("arn:" ^ addr))

(* The four states each input runs against: empty, fully applied
   (two rounds, so references to computed attributes settle), the
   applied state with rows deleted (their references turn unknown),
   and the applied state with attributes drifted (a configured value,
   an [id], a number retyped). *)
let states ~salt cfg : (string * rows) list =
  let applied = Hashtbl.create 16 in
  for _ = 1 to 2 do
    match Eval.Reference.expand ~env:(env_of applied) cfg with
    | r ->
        List.iter
          (fun i -> Hashtbl.replace applied (Addr.to_string i.Eval.addr) (row_of i))
          r.Eval.instances
    | exception Cloudless_error.Error _ -> ()
  done;
  let pick k key = Hashtbl.hash (salt, key) mod k = 0 in
  let deleted = Hashtbl.copy applied in
  Hashtbl.iter
    (fun key _ -> if pick 3 key then Hashtbl.remove deleted key)
    applied;
  let drifted = Hashtbl.copy applied in
  Hashtbl.iter
    (fun key row ->
      let row =
        if pick 2 key then
          Smap.mapi
            (fun k v ->
              match v with
              | Value.Vint n when pick 2 (key, k) -> Value.Vfloat (float_of_int n)
              | _ when k <> "id" && k <> "arn" -> Value.Vstring "drifted"
              | v -> v)
            row
        else row
      in
      let row =
        if pick 3 (key, "id") then Smap.add "id" (Value.Vstring "drifted-id") row
        else row
      in
      Hashtbl.replace drifted key row)
    applied;
  [
    ("empty", Hashtbl.create 1);
    ("applied", applied);
    ("deleted", deleted);
    ("drifted", drifted);
  ]

(* The environment of [rows] as a state text records them: each
   [env ()] loads the text afresh, so its rows are unread until an
   expansion reads them. *)
let loaded_env (rows : rows) =
  let module State = Cloudless_state.State in
  let state =
    Hashtbl.fold
      (fun key row st ->
        match Addr.of_string key with
        | Some addr ->
            State.add st
              {
                State.addr;
                cloud_id = "cid-" ^ key;
                rtype = addr.Addr.rtype;
                region = "us-east-1";
                recorded = Recorded.of_map row;
                deps = [];
              }
        | None -> st)
      rows State.empty
  in
  let text = State.to_string state in
  fun () ->
    {
      (env_of rows) with
      Eval.state_lookup = State.lookup (State.of_string text);
    }

(* [expand] agrees with the one-pass oracle on every state, in memory
   or loaded from its text, and one compiled configuration instantiated
   against every state in turn gives what a fresh compile per state
   gives. *)
let check_equivalent ~name ~salt src =
  match Config.parse ~file:"t.tf" src with
  | exception Cloudless_error.Error _ -> Ok ()
  | cfg -> (
      let compiled = Eval.compile cfg in
      let states =
        List.concat_map
          (fun (sname, rows) ->
            [ (sname, fun () -> env_of rows); (sname ^ " loaded", loaded_env rows) ])
          (states ~salt cfg)
      in
      let differ =
        List.find_map
          (fun (sname, env) ->
            let reference =
              outcome (fun () -> Eval.Reference.expand ~env:(env ()) cfg)
            in
            let fresh = outcome (fun () -> Eval.expand ~env:(env ()) cfg) in
            let shared =
              outcome (fun () -> Eval.instantiate ~env:(env ()) compiled)
            in
            if not (same_outcome reference fresh) then
              Some (sname, "expand", reference, fresh)
            else if not (same_outcome fresh shared) then
              Some (sname, "shared compile", fresh, shared)
            else None)
          states
      in
      match differ with
      | None -> Ok ()
      | Some (sname, what, want, got) ->
          Error
            (Printf.sprintf "%s, %s state: %s differs\n-- want\n%s\n-- got\n%s"
               name sname what (show_outcome want) (show_outcome got)))

(* Every {|...|} literal of the .ml files in [dir]; the ones that parse
   as configurations are the HCL sources. *)
let quoted_literals dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare
  |> List.concat_map (fun f ->
         let text =
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
         in
         let find sub from =
           let n = String.length text and m = String.length sub in
           let rec go i =
             if i + m > n then None
             else if String.sub text i m = sub then Some i
             else go (i + 1)
           in
           go from
         in
         let rec scan from acc =
           match find "{|" from with
           | None -> List.rev acc
           | Some s -> (
               match find "|}" (s + 2) with
               | None -> List.rev acc
               | Some e ->
                   scan (e + 2)
                     ((f, String.sub text (s + 2) (e - s - 2)) :: acc))
         in
         scan 0 [])

(* The test and example sources, from the test's build directory or
   from the repository root. *)
let source_dir candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.failf "none of %s found" (String.concat ", " candidates)

(* Inputs on the edges of what compile specializes: each must expand as
   the one-pass expander does, fallback or not. *)
let compile_edges =
  [
    (* an ordering error raised after the variables are bound *)
    {|variable "req" {}
resource "aws_security_group" "a" { name = aws_security_group.b.id }
resource "aws_security_group" "b" { name = aws_security_group.a.id }|};
    (* a resource type named like a reserved root *)
    {|resource "local" "x" { a = 1 }
locals { x = { y = 2 } }
resource "aws_vpc" "v" { z = local.x.y }|};
    (* repeated attribute names: the later binding wins *)
    {|resource "aws_vpc" "v" {
  a = 1
  a = aws_vpc.w.id
  b = aws_vpc.w.id
  b = 2
}
resource "aws_vpc" "w" {}|};
    (* counts that read a variable, are negative or are not a number *)
    {|variable "n" { default = 2 }
resource "aws_eip" "e" {
  count = var.n
  k     = count.index
}
resource "aws_vpc" "v" {
  ids   = aws_eip.e[*].id
  first = aws_eip.e[0].id
}|};
    {|resource "aws_eip" "e" { count = -1 }|};
    {|resource "aws_eip" "e" { count = "3" }|};
    (* the sentinel attribute of a resource object *)
    {|resource "aws_vpc" "a" {}
output "o" { value = aws_vpc.a.__addr__ }|};
    (* a for-expression that reads nothing, and one that reads state *)
    {|resource "aws_vpc" "a" { tags = { for k in ["a", "b"] : k => upper(k) } }
resource "aws_vpc" "b" { x = [for s in ["a"] : aws_vpc.a.id] }|};
    (* a bare [local]: an error at its span in both expanders *)
    {|locals { v = 1 }
resource "aws_vpc" "a" { all = local }|};
    (* lookups that may fail on a state's values *)
    {|resource "aws_vpc" "a" { cidr = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  x   = try(aws_vpc.a.id, "none")
  y   = can(aws_vpc.a.nope.deeper)
  z   = "${aws_vpc.a.id}-x"
  w   = aws_vpc.a.id.foo
  net = cidrsubnet(aws_vpc.a.cidr, 8, 1)
}|};
    (* a whole resource object as a value *)
    {|resource "aws_vpc" "a" {}
resource "aws_subnet" "s" { x = aws_vpc.a }
output "o" { value = aws_subnet.s.x.id }|};
    (* one instance of a for_each or counted block, by key or index *)
    {|resource "aws_vpc" "v" {
  for_each   = { a = "10.0.0.0/16", b = "10.1.0.0/16" }
  cidr_block = each.value
}
resource "aws_eip" "e" { count = 2 }
resource "aws_subnet" "s" {
  for_each = toset(["a", "b"])
  vpc_id   = aws_vpc.v[each.key].id
  cidr     = aws_vpc.v[each.key].cidr_block
  eip      = aws_eip.e[1].id
  addr     = aws_vpc.v[each.key].__addr__
  whole    = aws_vpc.v["a"]
  by_id    = aws_vpc.v[aws_eip.e[0].id]
}
output "o" { value = aws_vpc.v["b"].id }|};
    {|resource "aws_vpc" "v" { for_each = toset(["a"]) }
resource "aws_subnet" "s" { vpc_id = aws_vpc.v["missing"].id }|};
    {|resource "aws_vpc" "v" { for_each = toset(["a"]) }
resource "aws_subnet" "s" { vpc_id = aws_vpc.v[[1]].id }|};
    {|resource "aws_eip" "e" { count = 1 }
resource "aws_subnet" "s" { x = aws_eip.e[1].id }|};
    {|resource "aws_eip" "e" { count = 1 }
resource "aws_subnet" "s" { x = aws_eip.e["x"].id }|};
  ]

let corpus () =
  let literals =
    quoted_literals
      (Filename.dirname
         (source_dir [ "test_fixtures.ml"; "test/test_fixtures.ml" ]))
    @ quoted_literals
        (Filename.dirname
           (source_dir [ "../examples/quickstart.ml"; "examples/quickstart.ml" ]))
  in
  let parses src =
    match Config.parse ~file:"t.tf" src with
    | _ -> true
    | exception Cloudless_error.Error _ -> false
  in
  let hcl = List.filter (fun (_, src) -> parses src) literals in
  if List.length hcl < 50 then
    Alcotest.failf "only %d HCL sources found in the test and example files"
      (List.length hcl);
  hcl
  @ List.mapi
      (fun i src -> (Printf.sprintf "malformed row %d" i, src))
      Test_errors.malformed_configs
  @ List.mapi (fun i src -> (Printf.sprintf "compile edge %d" i, src)) compile_edges
  @ [
      ("figure 2", Test_fixtures.figure2);
      ("web_tier", Workload.web_tier ());
      ("microservices", Workload.microservices ());
      ("data_pipeline", Workload.data_pipeline ());
      ("multi_region", Workload.multi_region ());
      ("layered", Workload.layered ~width:3 ~depth:3 ());
      ("fleet", Workload.fleet ~instances_per_group:12 ~resources:16 ());
      ("chain", Workload.chain ~resources:6 ());
      ("multi_cloud", Workload.multi_cloud ());
    ]
  @ List.map (fun (n, src, _) -> ("misconfig " ^ n, src)) (Workload.misconfig_corpus ())

let test_compile_corpus () =
  List.iteri
    (fun salt (name, src) ->
      match check_equivalent ~name ~salt src with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    (corpus ())

let gen_workload =
  let open QCheck.Gen in
  let sized name f = map (fun (a, b) -> (name a b, f a b)) in
  oneof
    [
      map3
        (fun s w (lb, db) ->
          ( Printf.sprintf "web_tier %d %d %b %b" s w lb db,
            Workload.web_tier ~subnets:s ~web_count:w ~with_lb:lb ~with_db:db () ))
        (int_range 1 4) (int_range 0 6) (pair bool bool);
      sized (Printf.sprintf "microservices %d %d")
        (fun s n -> Workload.microservices ~services:s ~instances_per_service:n ())
        (pair (int_range 1 6) (int_range 1 4));
      map
        (fun n -> (Printf.sprintf "data_pipeline %d" n, Workload.data_pipeline ~stages:n ()))
        (int_range 1 5);
      sized (Printf.sprintf "multi_region %d %d")
        (fun r v ->
          Workload.multi_region
            ~regions:(List.filteri (fun i _ -> i < r) [ "us-east-1"; "us-west-2"; "eu-west-1" ])
            ~vms_per_region:v ())
        (pair (int_range 1 3) (int_range 0 3));
      sized (Printf.sprintf "layered %d %d")
        (fun w d -> Workload.layered ~width:w ~depth:d ())
        (pair (int_range 1 4) (int_range 1 4));
      sized (Printf.sprintf "fleet %d %d")
        (fun g n -> Workload.fleet ~instances_per_group:g ~resources:n ())
        (pair (int_range 1 12) (int_range 1 40));
      map (fun n -> (Printf.sprintf "chain %d" n, Workload.chain ~resources:n ())) (int_range 1 30);
      return ("multi_cloud", Workload.multi_cloud ());
      map
        (fun (n, src, _) -> ("misconfig " ^ n, src))
        (oneofl (Workload.misconfig_corpus ()));
    ]

let prop_compile_equivalent =
  QCheck.Test.make ~count:60
    ~name:"compile + instantiate = one-pass expand, on every state"
    (QCheck.make
       ~print:(fun ((name, _), salt) -> Printf.sprintf "%s, salt %d" name salt)
       QCheck.Gen.(pair gen_workload (int_range 0 1000)))
    (fun ((name, src), salt) ->
      match check_equivalent ~name ~salt src with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "hcl.eval.expr",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "booleans" `Quick test_bool_logic;
        Alcotest.test_case "collections" `Quick test_collections;
        Alcotest.test_case "for expressions" `Quick test_for_exprs;
        Alcotest.test_case "variables" `Quick test_vars;
      ] );
    ( "hcl.eval.funcs",
      [
        Alcotest.test_case "string functions" `Quick test_string_fns;
        Alcotest.test_case "collection functions" `Quick test_collection_fns;
        Alcotest.test_case "cidr functions" `Quick test_cidr_fns;
        Alcotest.test_case "encoding functions" `Quick test_encoding_fns;
        Alcotest.test_case "extra string functions" `Quick test_extra_string_fns;
        Alcotest.test_case "extra collection functions" `Quick test_extra_collection_fns;
      ] );
    ( "hcl.eval.unknown",
      [
        Alcotest.test_case "propagation" `Quick test_unknowns;
        Alcotest.test_case "state resolution" `Quick test_unknown_state_resolution;
      ] );
    ( "hcl.expand",
      [
        Alcotest.test_case "count" `Quick test_expand_count;
        Alcotest.test_case "count zero" `Quick test_expand_count_zero;
        Alcotest.test_case "for_each" `Quick test_expand_for_each;
        Alcotest.test_case "locals chain" `Quick test_expand_locals_chain;
        Alcotest.test_case "locals cycle" `Quick test_expand_local_cycle;
        Alcotest.test_case "data source (figure 2)" `Quick test_expand_data_source;
        Alcotest.test_case "dependency order" `Quick test_expand_dependency_order;
        Alcotest.test_case "dependency cycle" `Quick test_expand_dependency_cycle;
        Alcotest.test_case "module" `Quick test_expand_module;
        Alcotest.test_case "module count" `Quick test_expand_module_count;
        Alcotest.test_case "required variable" `Quick test_expand_required_variable;
        Alcotest.test_case "nested blocks" `Quick test_nested_blocks_to_lists;
        qtest prop_count_instances;
      ] );
    ( "hcl.compile",
      [
        Alcotest.test_case "every corpus source, every state" `Quick
          test_compile_corpus;
        qtest prop_compile_equivalent;
      ] );
  ]
