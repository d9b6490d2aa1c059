(* Tests for the HCL front-end: lexer, parser, printer, addresses,
   reference extraction, CIDR math.  Includes the paper's Figure 2
   program as a fixture (experiment FIG2). *)

open Cloudless_hcl

let check = Alcotest.check
let string_ = Alcotest.string
let int_ = Alcotest.int
let bool_ = Alcotest.bool

(* The exact IaC program from Figure 2 of the paper. *)
let figure2 =
  {|/* Simplified Terraform code snippet */

data "aws_region" "current" {}

variable "vmName" {
  type    = string
  default = "cloudless"
}

resource "aws_network_interface" "n1" {
  name     = "example-nic"
  location = data.aws_region.current.name
}

resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tok_kinds src =
  Lexer.tokenize ~file:"t" src
  |> List.filter_map (fun { Token.tok; _ } ->
         match tok with Token.NEWLINE -> None | t -> Some (Token.describe t))

let test_lex_simple () =
  check (Alcotest.list string_) "idents and symbols"
    [ "identifier \"a\""; "'='"; "integer 1"; "'+'"; "integer 2"; "end of input" ]
    (tok_kinds "a = 1 + 2")

let test_lex_comments () =
  check (Alcotest.list string_) "comments are skipped"
    [ "identifier \"x\""; "'='"; "integer 3"; "end of input" ]
    (tok_kinds "# line\n// line2\n/* block\nstill */ x = 3")

let test_lex_float_vs_traversal () =
  (* 'a.0' must lex as ident dot int, while '1.5' is a float *)
  check (Alcotest.list string_) "dot disambiguation"
    [ "identifier \"a\""; "'.'"; "integer 0"; "number 1.5"; "end of input" ]
    (tok_kinds "a.0 1.5")

let test_lex_string_escapes () =
  match Lexer.tokenize ~file:"t" {|"a\nb\"c"|} with
  | [ { Token.tok = Token.QUOTED [ Token.Lit s ]; _ }; _ ] ->
      check string_ "escapes" "a\nb\"c" s
  | _ -> Alcotest.fail "expected a single literal string"

let test_lex_interp () =
  match Lexer.tokenize ~file:"t" {|"x-${var.name}-y"|} with
  | [ { Token.tok = Token.QUOTED [ Token.Lit "x-"; Token.Interp toks; Token.Lit "-y" ]; _ }; _ ]
    ->
      check int_ "inner token count (var . name EOF)" 4 (List.length toks)
  | _ -> Alcotest.fail "expected interpolation parts"

let test_lex_nested_interp () =
  (* nested braces inside interpolation *)
  match Lexer.tokenize ~file:"t" {|"${ { a = 1 } }"|} with
  | [ { Token.tok = Token.QUOTED [ Token.Interp _ ]; _ }; _ ] -> ()
  | _ -> Alcotest.fail "expected single interp part"

let test_lex_heredoc () =
  let src = "x = <<EOF\nhello\nworld\nEOF\n" in
  let toks = Lexer.tokenize ~file:"t" src in
  let found =
    List.exists
      (fun { Token.tok; _ } ->
        match tok with
        | Token.HEREDOC [ Token.Lit s ] -> s = "hello\nworld\n"
        | _ -> false)
      toks
  in
  check bool_ "heredoc body" true found

let test_lex_heredoc_indent () =
  let src = "x = <<-EOF\n    a\n      b\n    EOF\n" in
  let toks = Lexer.tokenize ~file:"t" src in
  let found =
    List.exists
      (fun { Token.tok; _ } ->
        match tok with
        | Token.HEREDOC [ Token.Lit s ] -> s = "a\n  b\n"
        | _ -> false)
      toks
  in
  check bool_ "indented heredoc strips common prefix" true found

let test_lex_error_position () =
  match Lexer.tokenize ~file:"t" "a = @" with
  | exception Cloudless_error.Error { code = "lex-error"; span; _ } ->
      check int_ "error line" 1 (Loc.line span);
      check int_ "error col" 5 span.Loc.start_pos.Loc.col
  | _ -> Alcotest.fail "expected lexer error"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_expr = Parser.parse_expr_string

let test_parse_precedence () =
  let e = parse_expr "1 + 2 * 3" in
  match e.Ast.desc with
  | Ast.Binop (Ast.Add, _, { Ast.desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "expected 1 + (2 * 3)"

let test_parse_comparison_chain () =
  let e = parse_expr "a < b && c >= d" in
  match e.Ast.desc with
  | Ast.Binop (Ast.And, { Ast.desc = Ast.Binop (Ast.Lt, _, _); _ },
               { Ast.desc = Ast.Binop (Ast.Ge, _, _); _ }) -> ()
  | _ -> Alcotest.fail "expected (a<b) && (c>=d)"

let test_parse_ternary () =
  let e = parse_expr "x ? 1 : 2" in
  match e.Ast.desc with
  | Ast.Cond _ -> ()
  | _ -> Alcotest.fail "expected conditional"

let test_parse_traversal () =
  let e = parse_expr "aws_vpc.main.id" in
  match e.Ast.desc with
  | Ast.GetAttr ({ Ast.desc = Ast.GetAttr ({ Ast.desc = Ast.Var "aws_vpc"; _ }, "main"); _ }, "id") -> ()
  | _ -> Alcotest.fail "expected attr chain"

let test_parse_index_and_splat () =
  (match (parse_expr "a.b[0]").Ast.desc with
  | Ast.Index _ -> ()
  | _ -> Alcotest.fail "expected index");
  match (parse_expr "aws_subnet.s[*].id").Ast.desc with
  | Ast.Splat _ -> ()
  | _ -> Alcotest.fail "expected splat"

let test_parse_call_trailing_comma () =
  match (parse_expr "concat([1], [2],)").Ast.desc with
  | Ast.Call ("concat", [ _; _ ], false) -> ()
  | _ -> Alcotest.fail "expected 2-arg call"

let test_parse_call_expand () =
  match (parse_expr "min(values...)").Ast.desc with
  | Ast.Call ("min", [ _ ], true) -> ()
  | _ -> Alcotest.fail "expected expanded call"

let test_parse_for_list () =
  match (parse_expr "[for s in var.list : upper(s) if s != \"\"]").Ast.desc with
  | Ast.ForList { val_var = "s"; cond = Some _; _ } -> ()
  | _ -> Alcotest.fail "expected for-list"

let test_parse_for_map () =
  match (parse_expr "{for k, v in var.m : k => v}").Ast.desc with
  | Ast.ForMap ({ key_var = Some "k"; val_var = "v"; _ }, _) -> ()
  | _ -> Alcotest.fail "expected for-map"

let test_parse_object_multiline () =
  let e = parse_expr "{\n  a = 1\n  b = 2\n}" in
  match e.Ast.desc with
  | Ast.ObjectLit kvs -> check int_ "two entries" 2 (List.length kvs)
  | _ -> Alcotest.fail "expected object"

let test_parse_block_structure () =
  let body = Parser.parse ~file:"t" figure2 in
  check int_ "top-level blocks" 4 (List.length body.Ast.blocks);
  let kinds = List.map (fun b -> b.Ast.btype) body.Ast.blocks in
  check (Alcotest.list string_) "block kinds"
    [ "data"; "variable"; "resource"; "resource" ]
    kinds

let test_parse_error_has_location () =
  match Parser.parse ~file:"t" "resource \"a\" {\n  x = (1\n}" with
  | exception Cloudless_error.Error { code = "parse-error"; span; _ } ->
      check bool_ "line >= 2" true (Loc.line span >= 2)
  | _ -> Alcotest.fail "expected parse error"

let test_parse_figure2_config () =
  let cfg = Config.parse ~file:"fig2.tf" figure2 in
  check int_ "one variable" 1 (List.length cfg.Config.variables);
  check int_ "one data source" 1 (List.length cfg.Config.data_sources);
  check int_ "two resources" 2 (List.length cfg.Config.resources);
  let v = List.hd cfg.Config.variables in
  check string_ "variable name" "vmName" v.Config.vname;
  check (Alcotest.option string_) "variable type" (Some "string") v.Config.vtype

(* ------------------------------------------------------------------ *)
(* Config extraction                                                   *)
(* ------------------------------------------------------------------ *)

let test_config_meta_args () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_instance" "web" {
  count         = 3
  ami           = "ami-123"
  depends_on    = [aws_vpc.main]
  lifecycle {
    create_before_destroy = true
    prevent_destroy       = true
    ignore_changes        = [tags]
  }
}
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
}
|}
  in
  let r = Option.get (Config.find_resource cfg "aws_instance" "web") in
  check bool_ "count present" true (r.Config.rcount <> None);
  check (Alcotest.list (Alcotest.pair string_ string_)) "depends_on"
    [ ("aws_vpc", "main") ] r.Config.rdepends_on;
  check bool_ "cbd" true r.Config.rlifecycle.Config.create_before_destroy;
  check bool_ "prevent" true r.Config.rlifecycle.Config.prevent_destroy;
  check (Alcotest.list string_) "ignore_changes" [ "tags" ]
    r.Config.rlifecycle.Config.ignore_changes;
  (* meta args must be stripped from the plain body *)
  check bool_ "no count in body" true (Ast.attr r.Config.rbody "count" = None)

let test_config_duplicate_resource () =
  let src = {|
resource "a_b" "x" {}
resource "a_b" "x" {}
|} in
  match Config.parse ~file:"t" src with
  | exception Cloudless_error.Error { code = "structure-error"; _ } -> ()
  | _ -> Alcotest.fail "expected duplicate-resource error"

(* Duplicate declarations: for each kind, a duplicate of the first, a
   middle and the last of five earlier declarations, within one file
   ([Config.parse]) and across files ([Config.merge]).  The expected
   diagnostics — message and span — were recorded from the list-scan
   checks the declared-name tables replaced. *)
let dup_kinds = [ "variable"; "resource"; "data"; "output"; "module"; "local" ]

let dup_decl kind name =
  match kind with
  | "variable" -> Printf.sprintf "variable %S {\n  default = 1\n}\n" name
  | "resource" ->
      Printf.sprintf "resource \"aws_vpc\" %S {\n  cidr_block = \"10.0.0.0/16\"\n}\n"
        name
  | "data" -> Printf.sprintf "data \"aws_region\" %S {\n}\n" name
  | "output" -> Printf.sprintf "output %S {\n  value = 1\n}\n" name
  | "module" -> Printf.sprintf "module %S {\n  source = \"./m\"\n}\n" name
  | _ -> Printf.sprintf "locals {\n  %s = 1\n}\n" name

let dup_outcome f =
  match f () with
  | exception
      Cloudless_error.Error
        { code = "structure-error"; message = msg; span = sp; _ } ->
      Printf.sprintf "%s @ %s:%d:%d-%d:%d [%d,%d)" msg sp.Loc.file
        sp.Loc.start_pos.Loc.line sp.Loc.start_pos.Loc.col
        sp.Loc.end_pos.Loc.line sp.Loc.end_pos.Loc.col
        sp.Loc.start_pos.Loc.offset sp.Loc.end_pos.Loc.offset
  | (_ : Config.t) -> "accepted"

let dup_table () =
  List.concat_map
    (fun kind ->
      let earlier =
        String.concat "" (List.init 5 (fun i -> dup_decl kind (Printf.sprintf "n%d" i)))
      in
      List.concat_map
        (fun pos ->
          let dup = dup_decl kind (Printf.sprintf "n%d" pos) in
          let parse () = Config.parse ~file:"one.tf" (earlier ^ dup) in
          let merge () =
            Config.merge
              [
                Config.parse ~file:"a.tf" earlier;
                Config.parse ~file:"b.tf" (dup_decl kind "fresh" ^ dup);
              ]
          in
          [
            Printf.sprintf "parse %s n%d: %s" kind pos (dup_outcome parse);
            Printf.sprintf "merge %s n%d: %s" kind pos (dup_outcome merge);
          ])
        [ 0; 2; 4 ])
    dup_kinds

(* [merge] checks every kind across files, as [parse] does within one,
   and reports the later file's declaration (a local at its value). *)
let test_config_duplicate_table () =
  let expected =
    {|
parse variable n0: duplicate variable "n0" @ one.tf:16:1-18:2 [160,191)
merge variable n0: duplicate variable "n0" across files @ b.tf:4:1-6:2 [35,66)
parse variable n2: duplicate variable "n2" @ one.tf:16:1-18:2 [160,191)
merge variable n2: duplicate variable "n2" across files @ b.tf:4:1-6:2 [35,66)
parse variable n4: duplicate variable "n4" @ one.tf:16:1-18:2 [160,191)
merge variable n4: duplicate variable "n4" across files @ b.tf:4:1-6:2 [35,66)
parse resource n0: duplicate resource aws_vpc.n0 @ one.tf:16:1-18:2 [285,341)
merge resource n0: duplicate resource aws_vpc.n0 across files @ b.tf:4:1-6:2 [60,116)
parse resource n2: duplicate resource aws_vpc.n2 @ one.tf:16:1-18:2 [285,341)
merge resource n2: duplicate resource aws_vpc.n2 across files @ b.tf:4:1-6:2 [60,116)
parse resource n4: duplicate resource aws_vpc.n4 @ one.tf:16:1-18:2 [285,341)
merge resource n4: duplicate resource aws_vpc.n4 across files @ b.tf:4:1-6:2 [60,116)
parse data n0: duplicate data source data.aws_region.n0 @ one.tf:11:1-12:2 [135,161)
merge data n0: duplicate data source data.aws_region.n0 across files @ b.tf:3:1-4:2 [30,56)
parse data n2: duplicate data source data.aws_region.n2 @ one.tf:11:1-12:2 [135,161)
merge data n2: duplicate data source data.aws_region.n2 across files @ b.tf:3:1-4:2 [30,56)
parse data n4: duplicate data source data.aws_region.n4 @ one.tf:11:1-12:2 [135,161)
merge data n4: duplicate data source data.aws_region.n4 across files @ b.tf:3:1-4:2 [30,56)
parse output n0: duplicate output "n0" @ one.tf:16:1-18:2 [140,167)
merge output n0: duplicate output "n0" across files @ b.tf:4:1-6:2 [31,58)
parse output n2: duplicate output "n2" @ one.tf:16:1-18:2 [140,167)
merge output n2: duplicate output "n2" across files @ b.tf:4:1-6:2 [31,58)
parse output n4: duplicate output "n4" @ one.tf:16:1-18:2 [140,167)
merge output n4: duplicate output "n4" across files @ b.tf:4:1-6:2 [31,58)
parse module n0: duplicate module "n0" @ one.tf:16:1-18:2 [165,197)
merge module n0: duplicate module "n0" across files @ b.tf:4:1-6:2 [36,68)
parse module n2: duplicate module "n2" @ one.tf:16:1-18:2 [165,197)
merge module n2: duplicate module "n2" across files @ b.tf:4:1-6:2 [36,68)
parse module n4: duplicate module "n4" @ one.tf:16:1-18:2 [165,197)
merge module n4: duplicate module "n4" across files @ b.tf:4:1-6:2 [36,68)
parse local n0: duplicate local "n0" @ one.tf:16:1-18:2 [100,119)
merge local n0: duplicate local "n0" across files @ b.tf:5:8-5:9 [39,40)
parse local n2: duplicate local "n2" @ one.tf:16:1-18:2 [100,119)
merge local n2: duplicate local "n2" across files @ b.tf:5:8-5:9 [39,40)
parse local n4: duplicate local "n4" @ one.tf:16:1-18:2 [100,119)
merge local n4: duplicate local "n4" across files @ b.tf:5:8-5:9 [39,40)
|}
  in
  check (Alcotest.list string_) "duplicate diagnostics"
    (String.split_on_char '\n' (String.trim expected))
    (dup_table ())

let test_config_module () =
  let cfg =
    Config.parse ~file:"t"
      {|
module "net" {
  source = "./network"
  cidr   = "10.0.0.0/16"
}
output "vpc_id" { value = module.net.vpc_id }
|}
  in
  let m = Option.get (Config.find_module cfg "net") in
  check string_ "source" "./network" m.Config.msource;
  check int_ "one arg" 1 (List.length m.Config.margs);
  check int_ "one output" 1 (List.length cfg.Config.outputs)

let test_config_merge () =
  let a = Config.parse ~file:"a.tf" {|
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
variable "x" { default = 1 }
|} in
  let b = Config.parse ~file:"b.tf" {|
resource "aws_subnet" "s" { vpc_id = aws_vpc.v.id }
output "o" { value = var.x }
|} in
  let merged = Config.merge [ a; b ] in
  check int_ "resources merged" 2 (List.length merged.Config.resources);
  check int_ "outputs merged" 1 (List.length merged.Config.outputs);
  check int_ "variables merged" 1 (List.length merged.Config.variables);
  (* cross-file references resolve after merging *)
  let result = Cloudless_hcl.Eval.expand merged in
  check int_ "expands" 2 (List.length result.Cloudless_hcl.Eval.instances);
  (* duplicates across files are rejected *)
  match Config.merge [ a; a ] with
  | exception Cloudless_error.Error { code = "structure-error"; _ } -> ()
  | _ -> Alcotest.fail "expected duplicate error"

(* ------------------------------------------------------------------ *)
(* Reference extraction                                                *)
(* ------------------------------------------------------------------ *)

let refs_of src =
  Refs.of_expr (parse_expr src) |> List.map Refs.target_to_string

let test_refs_basic () =
  check (Alcotest.list string_) "var+resource"
    [ "var.name"; "aws_vpc.main" ]
    (refs_of {|"${var.name}-${aws_vpc.main.id}"|})

let test_refs_data_module () =
  check (Alcotest.list string_) "data+module"
    [ "data.aws_region.current"; "module.net.vpc_id" ]
    (refs_of "[data.aws_region.current.name, module.net.vpc_id]")

let test_refs_for_bound_vars () =
  (* 's' is bound by the for-expression, not a reference *)
  check (Alcotest.list string_) "bound vars excluded" [ "var.list" ]
    (refs_of "[for s in var.list : s]")

let test_refs_dedup () =
  check (Alcotest.list string_) "no duplicates" [ "var.a" ]
    (refs_of "var.a + var.a")

let test_refs_of_body () =
  let cfg = Config.parse ~file:"t" figure2 in
  let vm = Option.get (Config.find_resource cfg "aws_virtual_machine" "vm1") in
  let targets = Refs.of_body vm.Config.rbody |> List.map Refs.target_to_string in
  check (Alcotest.list string_) "vm refs"
    [ "var.vmName"; "aws_network_interface.n1" ]
    targets

(* ------------------------------------------------------------------ *)
(* Printer round-trips                                                 *)
(* ------------------------------------------------------------------ *)

let normalize src =
  (* parse -> print gives canonical text *)
  Printer.config_to_string (Parser.parse ~file:"t" src)

let test_print_roundtrip_fig2 () =
  (* printing then re-parsing must be a fixpoint *)
  let once = normalize figure2 in
  let twice = normalize once in
  check string_ "printer fixpoint" once twice;
  (* and the re-parsed config must be structurally identical *)
  let c1 = Config.parse ~file:"t" figure2 in
  let c2 = Config.parse ~file:"t" once in
  check int_ "resources preserved"
    (List.length c1.Config.resources)
    (List.length c2.Config.resources)

let test_print_expr_parens () =
  (* a programmatically built (1+2)*3 must print with parens *)
  let e =
    Ast.mk
      (Ast.Binop
         ( Ast.Mul,
           Ast.mk (Ast.Binop (Ast.Add, Ast.mk (Ast.Int 1), Ast.mk (Ast.Int 2))),
           Ast.mk (Ast.Int 3) ))
  in
  check string_ "parens" "(1 + 2) * 3" (Printer.expr_to_string e)

let test_print_template_escape () =
  let e = Ast.string_lit "a${b}\"c\"" in
  let printed = Printer.expr_to_string e in
  let back = parse_expr printed in
  match back.Ast.desc with
  | Ast.Template [ Ast.Lit s ] -> check string_ "escaped dollar survives" "a${b}\"c\"" s
  | _ -> Alcotest.fail "expected literal template"

(* Property: any expression printed then parsed evaluates identically. *)
let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ast.mk (Ast.Int n)) (int_range (-1000) 1000);
        map (fun b -> Ast.mk (Ast.Bool b)) bool;
        map (fun s -> Ast.string_lit s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 2,
            map2
              (fun a b -> Ast.mk (Ast.Binop (Ast.Add, a, b)))
              (node (depth - 1)) (node (depth - 1)) );
          ( 1,
            map2
              (fun a b -> Ast.mk (Ast.Binop (Ast.Mul, a, b)))
              (node (depth - 1)) (node (depth - 1)) );
          (1, map (fun es -> Ast.mk (Ast.ListLit es)) (list_size (int_range 0 3) (node (depth - 1))));
          ( 1,
            map3
              (fun c a b ->
                Ast.mk (Ast.Cond (Ast.mk (Ast.Bool c), a, b)))
              bool (node (depth - 1)) (node (depth - 1)) );
        ]
  in
  node 3

(* Arithmetic on random ints can mix strings, so restrict eval compare to
   when both evaluate without error. *)
let prop_print_parse_eval =
  QCheck.Test.make ~count:200 ~name:"print/parse/eval round-trip"
    (QCheck.make expr_gen ~print:Printer.expr_to_string)
    (fun e ->
      let printed = Printer.expr_to_string e in
      match Parser.parse_expr_string printed with
      | exception Cloudless_error.Error { code = "parse-error"; message; _ } ->
          QCheck.Test.fail_reportf "re-parse failed on %s: %s" printed message
      | e' -> (
          match (Eval.eval_expr e, Eval.eval_expr e') with
          | v1, v2 -> Value.equal v1 v2
          | exception _ -> (
              (* both must fail the same way *)
              match Eval.eval_expr e' with
              | exception _ -> true
              | _ -> false)))

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

let test_addr_to_string () =
  let a =
    Addr.make ~module_path:[ "net" ] ~rtype:"aws_subnet" ~rname:"s"
      ~key:(Addr.Kint 2) ()
  in
  check string_ "addr" "module.net.aws_subnet.s[2]" (Addr.to_string a);
  let d = Addr.make ~mode:Addr.Data ~rtype:"aws_region" ~rname:"current" () in
  check string_ "data addr" "data.aws_region.current" (Addr.to_string d)

let test_addr_roundtrip () =
  let cases =
    [
      Addr.make ~rtype:"aws_vpc" ~rname:"main" ();
      Addr.make ~rtype:"aws_subnet" ~rname:"s" ~key:(Addr.Kint 0) ();
      Addr.make ~rtype:"aws_vpc" ~rname:"m" ~key:(Addr.Kstr "east") ();
      Addr.make ~mode:Addr.Data ~rtype:"aws_ami" ~rname:"ubuntu" ();
      Addr.make ~module_path:[ "a"; "b" ] ~rtype:"t_x" ~rname:"n" ();
    ]
  in
  List.iter
    (fun a ->
      match Addr.of_string (Addr.to_string a) with
      | Some a' ->
          check string_ "roundtrip" (Addr.to_string a) (Addr.to_string a')
      | None -> Alcotest.failf "could not re-parse %s" (Addr.to_string a))
    cases

let test_addr_base () =
  let a = Addr.make ~rtype:"x_y" ~rname:"n" ~key:(Addr.Kint 3) () in
  let b = Addr.make ~rtype:"x_y" ~rname:"n" ~key:(Addr.Kint 7) () in
  check bool_ "same base" true (Addr.same_base a b);
  check string_ "base str" "x_y.n" (Addr.to_string (Addr.base a))

(* Addresses arrive from state files and journals: parsing must return
   [None] on anything malformed, never raise. *)
let prop_addr_of_string_total =
  QCheck.Test.make ~count:500 ~name:"Addr.of_string is total"
    QCheck.(
      string_gen_of_size (Gen.int_range 0 16)
        (Gen.oneofl [ 'a'; '_'; '.'; '['; ']'; '"'; '\\'; '1'; '-' ]))
    (fun s ->
      match Addr.of_string s with
      | Some a -> Addr.of_string (Addr.to_string a) = Some a
      | None -> true)

(* ------------------------------------------------------------------ *)
(* CIDR math                                                           *)
(* ------------------------------------------------------------------ *)

let test_ipnet_parse () =
  let p = Ipnet.parse_prefix "10.1.2.3/16" in
  check string_ "network is masked" "10.1.0.0/16" (Ipnet.prefix_to_string p)

let test_ipnet_subnet () =
  let p = Ipnet.parse_prefix "10.0.0.0/16" in
  let s = Ipnet.subnet p ~newbits:8 ~netnum:3 in
  check string_ "cidrsubnet" "10.0.3.0/24" (Ipnet.prefix_to_string s)

let test_ipnet_host () =
  let p = Ipnet.parse_prefix "10.0.3.0/24" in
  check string_ "cidrhost" "10.0.3.7" (Ipnet.addr_to_string (Ipnet.host p 7))

let test_ipnet_overlap () =
  let a = Ipnet.parse_prefix "10.0.0.0/16" in
  let b = Ipnet.parse_prefix "10.0.128.0/17" in
  let c = Ipnet.parse_prefix "10.1.0.0/16" in
  check bool_ "contained overlaps" true (Ipnet.overlaps a b);
  check bool_ "disjoint" false (Ipnet.overlaps a c);
  check bool_ "contains" true (Ipnet.contains ~outer:a ~inner:b);
  check bool_ "not contains" false (Ipnet.contains ~outer:b ~inner:a)

let test_ipnet_invalid () =
  List.iter
    (fun s -> check bool_ s false (Ipnet.is_valid_prefix s))
    [ "10.0.0.0"; "10.0.0.0/33"; "300.0.0.0/8"; "a.b.c.d/8"; "10.0.0/8" ]

let prop_ipnet_subnets_disjoint =
  QCheck.Test.make ~count:100 ~name:"sibling cidrsubnets never overlap"
    QCheck.(pair (int_range 0 200) (int_range 0 200))
    (fun (i, j) ->
      QCheck.assume (i <> j);
      let p = Ipnet.parse_prefix "10.0.0.0/8" in
      let a = Ipnet.subnet p ~newbits:8 ~netnum:i in
      let b = Ipnet.subnet p ~newbits:8 ~netnum:j in
      not (Ipnet.overlaps a b))

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "hcl.lexer",
      [
        Alcotest.test_case "simple tokens" `Quick test_lex_simple;
        Alcotest.test_case "comments" `Quick test_lex_comments;
        Alcotest.test_case "float vs traversal" `Quick test_lex_float_vs_traversal;
        Alcotest.test_case "string escapes" `Quick test_lex_string_escapes;
        Alcotest.test_case "interpolation" `Quick test_lex_interp;
        Alcotest.test_case "nested interpolation" `Quick test_lex_nested_interp;
        Alcotest.test_case "heredoc" `Quick test_lex_heredoc;
        Alcotest.test_case "indented heredoc" `Quick test_lex_heredoc_indent;
        Alcotest.test_case "error position" `Quick test_lex_error_position;
      ] );
    ( "hcl.parser",
      [
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "comparisons" `Quick test_parse_comparison_chain;
        Alcotest.test_case "ternary" `Quick test_parse_ternary;
        Alcotest.test_case "traversal" `Quick test_parse_traversal;
        Alcotest.test_case "index and splat" `Quick test_parse_index_and_splat;
        Alcotest.test_case "trailing comma" `Quick test_parse_call_trailing_comma;
        Alcotest.test_case "call expansion" `Quick test_parse_call_expand;
        Alcotest.test_case "for list" `Quick test_parse_for_list;
        Alcotest.test_case "for map" `Quick test_parse_for_map;
        Alcotest.test_case "multiline object" `Quick test_parse_object_multiline;
        Alcotest.test_case "figure 2 blocks" `Quick test_parse_block_structure;
        Alcotest.test_case "error location" `Quick test_parse_error_has_location;
        Alcotest.test_case "figure 2 config" `Quick test_parse_figure2_config;
      ] );
    ( "hcl.config",
      [
        Alcotest.test_case "meta arguments" `Quick test_config_meta_args;
        Alcotest.test_case "duplicate resource" `Quick test_config_duplicate_resource;
        Alcotest.test_case "duplicate declaration table" `Quick
          test_config_duplicate_table;
        Alcotest.test_case "module call" `Quick test_config_module;
        Alcotest.test_case "multi-file merge" `Quick test_config_merge;
      ] );
    ( "hcl.refs",
      [
        Alcotest.test_case "basic" `Quick test_refs_basic;
        Alcotest.test_case "data and module" `Quick test_refs_data_module;
        Alcotest.test_case "for-bound vars" `Quick test_refs_for_bound_vars;
        Alcotest.test_case "dedup" `Quick test_refs_dedup;
        Alcotest.test_case "of_body on figure 2" `Quick test_refs_of_body;
      ] );
    ( "hcl.printer",
      [
        Alcotest.test_case "figure 2 round-trip" `Quick test_print_roundtrip_fig2;
        Alcotest.test_case "parens" `Quick test_print_expr_parens;
        Alcotest.test_case "template escapes" `Quick test_print_template_escape;
        qtest prop_print_parse_eval;
      ] );
    ( "hcl.addr",
      [
        Alcotest.test_case "to_string" `Quick test_addr_to_string;
        Alcotest.test_case "round-trip" `Quick test_addr_roundtrip;
        Alcotest.test_case "base" `Quick test_addr_base;
        qtest prop_addr_of_string_total;
      ] );
    ( "hcl.ipnet",
      [
        Alcotest.test_case "parse" `Quick test_ipnet_parse;
        Alcotest.test_case "subnet" `Quick test_ipnet_subnet;
        Alcotest.test_case "host" `Quick test_ipnet_host;
        Alcotest.test_case "overlap" `Quick test_ipnet_overlap;
        Alcotest.test_case "invalid prefixes" `Quick test_ipnet_invalid;
        qtest prop_ipnet_subnets_disjoint;
      ] );
  ]
