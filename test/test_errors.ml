(* The unified error channel, end to end: malformed HCL, unknown
   references, dependency cycles and quota-exceeded deploys must all
   surface as located Diagnostic.t values — through the Lifecycle
   facade and through the in-process CLI handlers (asserting the
   exit-code convention: 1 = user/config error, 2 = deploy failure).
   No raw exception may escape either path. *)

module Lifecycle = Cloudless.Lifecycle
module Cli = Cloudless.Cli
module Io_util = Cloudless.Io_util
module Diagnostic = Cloudless_validate.Diagnostic
module Loc = Cloudless_hcl.Loc
module Dag = Cloudless_graph.Dag
module Cloud = Cloudless_sim.Cloud

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let malformed_hcl = "resource \"aws_vpc\" \"main\" {\n  cidr_block = \n"

let unknown_ref_hcl =
  {|
resource "aws_instance" "web" {
  region = "us-east-1"
  subnet = aws_subnet.missing.id
}
|}

let cycle_hcl =
  {|
resource "aws_security_group" "a" {
  region = "us-east-1"
  name   = aws_security_group.b.id
}

resource "aws_security_group" "b" {
  region = "us-east-1"
  name   = aws_security_group.a.id
}
|}

let quota_hcl =
  {|
resource "aws_eip" "ip" {
  count  = 5
  region = "us-east-1"
}
|}

let quota_cloud_config =
  Cloudless_schema.Cloud_rules.config_with_checks
    ~base:{ Cloud.default_config with Cloud.quotas = [ ("aws_eip", 2) ] }
    ()

(* A temp file containing [contents]; cleaned up by the runner's tmpdir. *)
let temp_file ?(suffix = ".tf") contents =
  let path = Filename.temp_file "cloudless_err" suffix in
  Io_util.write_file path contents;
  path

let temp_path suffix =
  let path = Filename.temp_file "cloudless_err" suffix in
  Sys.remove path;
  path

(* Capture handler output so test logs stay readable. *)
let quiet_io () =
  let out = Buffer.create 256 and err = Buffer.create 256 in
  ( { Cli.out = Buffer.add_string out; err = Buffer.add_string err },
    fun () -> (Buffer.contents out, Buffer.contents err) )

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Through the Lifecycle facade                                        *)
(* ------------------------------------------------------------------ *)

let test_lifecycle_malformed () =
  let t = Lifecycle.create () in
  match Lifecycle.develop t malformed_hcl with
  | Ok _ -> Alcotest.fail "malformed HCL must not develop"
  | Error e -> (
      match Lifecycle.error_diagnostics e with
      | [] -> Alcotest.fail "expected at least one diagnostic"
      | d :: _ ->
          check bool_ "syntax stage" true (d.Diagnostic.stage = Diagnostic.Syntax);
          check bool_ "located" false (Loc.is_dummy d.Diagnostic.span);
          check bool_ "renders" true
            (contains ~sub:"syntax" (Diagnostic.to_string d)))

let test_lifecycle_unknown_ref () =
  let t = Lifecycle.create () in
  match Lifecycle.develop t unknown_ref_hcl with
  | Ok _ -> Alcotest.fail "unknown reference must not develop"
  | Error (Lifecycle.Invalid_config ds) ->
      check bool_ "has diagnostics" true (ds <> []);
      let d = List.hd ds in
      check bool_ "references stage" true
        (d.Diagnostic.stage = Diagnostic.References);
      check bool_ "located" false (Loc.is_dummy d.Diagnostic.span);
      check bool_ "line points into the block" true (Loc.line d.Diagnostic.span >= 2)
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e)

(* mutual references are caught as early as possible: the reference
   stage of validation reports the cycle with a source span, so the
   config never reaches the planner *)
let test_lifecycle_cycle () =
  let t = Lifecycle.create () in
  match Lifecycle.develop t cycle_hcl with
  | Ok _ -> Alcotest.fail "cyclic dependencies must not develop"
  | Error (Lifecycle.Invalid_config ds) ->
      let d = List.hd ds in
      check bool_ "references stage" true
        (d.Diagnostic.stage = Diagnostic.References);
      check bool_ "located" false (Loc.is_dummy d.Diagnostic.span);
      check bool_ "names the cycle" true
        (contains ~sub:"dependency cycle" d.Diagnostic.message)
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e)

(* a cycle that only materializes in the graph layer (e.g. mined
   dependencies) surfaces through the typed channel as a diagnostic
   addressed to the first blocked node and naming every blocked node
   in node order *)
let test_boundary_dag_cycle () =
  let addr s = Option.get (Cloudless_hcl.Addr.of_string s) in
  let a = addr "aws_vpc.a" and b = addr "aws_vpc.b" in
  let g = Dag.of_edges [ (a, ()); (b, ()) ] [ (a, b); (b, a) ] in
  match Cloudless_error.protect (fun () -> Dag.check_acyclic g) with
  | Ok () -> Alcotest.fail "cycle must become an error"
  | Error d ->
      check string_ "code" "dependency-cycle" d.Diagnostic.code;
      check bool_ "plan stage" true (d.Diagnostic.stage = Diagnostic.Plan_stage);
      check bool_ "addressed" true (d.Diagnostic.addr = Some a);
      check string_ "blocked nodes in node order"
        "dependency cycle between: aws_vpc.a, aws_vpc.b" d.Diagnostic.message

let test_lifecycle_quota () =
  let t = Lifecycle.create ~cloud_config:quota_cloud_config () in
  match Lifecycle.deploy t quota_hcl with
  | Ok _ -> Alcotest.fail "quota-exceeded deploy must fail"
  | Error (Lifecycle.Deploy_failed _ as e) ->
      let ds = Lifecycle.error_diagnostics e in
      check bool_ "per-failure diagnostics" true (List.length ds > 0);
      List.iter
        (fun d ->
          check bool_ "deploy stage" true (d.Diagnostic.stage = Diagnostic.Deploy);
          check bool_ "addressed" true (d.Diagnostic.addr <> None);
          check bool_ "mentions quota" true
            (contains ~sub:"quota" (Diagnostic.to_string d)))
        ds
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Through the CLI handlers                                            *)
(* ------------------------------------------------------------------ *)

let test_cli_malformed () =
  let io, dump = quiet_io () in
  let file = temp_file malformed_hcl in
  let code = Cli.apply ~io ~file ~state_path:(temp_path ".cls") () in
  check int_ "config error exits 1" 1 code;
  let _, err = dump () in
  check bool_ "stderr is a rendered diagnostic" true
    (contains ~sub:"error[syntax/" err);
  check bool_ "stderr carries the location" true (contains ~sub:".tf:" err)

let test_cli_validate_exit_code () =
  let io, _ = quiet_io () in
  let file = temp_file unknown_ref_hcl in
  check int_ "validate exit 1" 1
    (Cli.validate ~io ~file ~state_path:(temp_path ".cls") ());
  let io, _ = quiet_io () in
  let good = temp_file (Cloudless_workload.Workload.web_tier ()) in
  check int_ "validate exit 0" 0
    (Cli.validate ~io ~file:good ~state_path:(temp_path ".cls") ())

let test_cli_cycle () =
  let io, dump = quiet_io () in
  let file = temp_file cycle_hcl in
  let code = Cli.apply ~io ~file ~state_path:(temp_path ".cls") () in
  check int_ "cycle exits 1" 1 code;
  let _, err = dump () in
  check bool_ "names the cycle" true (contains ~sub:"dependency cycle" err);
  check bool_ "rendered via Diagnostic" true (contains ~sub:"error[" err)

let test_cli_quota () =
  let io, dump = quiet_io () in
  let file = temp_file quota_hcl in
  let code =
    Cli.apply ~io ~cloud_config:quota_cloud_config ~file
      ~state_path:(temp_path ".cls") ()
  in
  check int_ "deploy failure exits 2" 2 code;
  let out, _ = dump () in
  check bool_ "failure is reported" true (contains ~sub:"FAILED" out);
  check bool_ "mentions quota" true (contains ~sub:"quota" out)

let test_cli_corrupt_state () =
  let io, dump = quiet_io () in
  let file = temp_file "resource \"aws_vpc\" \"v\" { region = \"us-east-1\" }\n" in
  let state_path = temp_file ~suffix:".cls" "resource \"half\" {" in
  let code = Cli.plan ~io ~file ~state_path () in
  check int_ "corrupt state exits 1" 1 code;
  let _, err = dump () in
  check bool_ "rendered via Diagnostic" true (contains ~sub:"error[" err)

(* A state file whose content is well-formed HCL but not a state: each
   must exit 1 with a corrupt-state diagnostic located at the offending
   block (line 4), field (the serial on line 2, the row's fields on
   lines 5-9) or top-level attribute (line 1) — never an internal
   error or an escaped exception.  A state holds literal data only, so
   operators, conditionals, references, interpolations and heredocs
   are corrupt too. *)
let state_with ?(top = "") ?(serial = "1") ?(cloud_id = "\"vpc-1\"")
    ?(attributes = "{}") ~label ~depends () =
  Printf.sprintf
    "%sstate {\n  serial = %s\n}\ninstance %S {\n  cloud_id   = %s\n  type       = \"aws_vpc\"\n  region     = \"us-east-1\"\n  attributes = %s\n  depends    = [%s]\n}\n"
    top serial label cloud_id attributes depends

let corrupt_states =
  [
    ("unclosed key", state_with ~label:"aws_vpc.a[" ~depends:"" (), 4);
    ("unterminated quoted key", state_with ~label:"aws_vpc.a[\"x]" ~depends:"" (), 4);
    ("empty key", state_with ~label:"aws_vpc.a[]" ~depends:"" (), 4);
    ( "unclosed dependency key",
      state_with ~label:"aws_vpc.b" ~depends:"\"aws_vpc.a[\"" (),
      4 );
    ( "top-level attribute",
      state_with ~top:"serial = 3\n" ~label:"aws_vpc.b" ~depends:"" (),
      1 );
    ("string serial", state_with ~serial:"\"abc\"" ~label:"aws_vpc.b" ~depends:"" (), 2);
    ("fractional serial", state_with ~serial:"1.5" ~label:"aws_vpc.b" ~depends:"" (), 2);
    ("nested depends", state_with ~label:"aws_vpc.b" ~depends:"[1]" (), 9);
    ("number cloud_id", state_with ~cloud_id:"5" ~label:"aws_vpc.b" ~depends:"" (), 5);
    ("list attributes", state_with ~attributes:"[]" ~label:"aws_vpc.b" ~depends:"" (), 8);
    ("operator", state_with ~serial:"1 + 2" ~label:"aws_vpc.b" ~depends:"" (), 2);
    ("conditional", state_with ~serial:"true ? 1 : 2" ~label:"aws_vpc.b" ~depends:"" (), 2);
    ("reference", state_with ~cloud_id:"var.id" ~label:"aws_vpc.b" ~depends:"" (), 5);
    ( "interpolation",
      state_with ~cloud_id:"\"vpc-${1}\"" ~label:"aws_vpc.b" ~depends:"" (),
      5 );
    ( "heredoc",
      state_with ~attributes:"<<EOF\n{}\nEOF" ~label:"aws_vpc.b" ~depends:"" (),
      8 );
  ]

let test_cli_corrupt_state_table () =
  let file = temp_file "resource \"aws_vpc\" \"v\" { region = \"us-east-1\" }\n" in
  List.iter
    (fun (name, contents, line) ->
      let io, dump = quiet_io () in
      let state_path = temp_file ~suffix:".cls" contents in
      let code = Cli.plan ~io ~file ~state_path () in
      check int_ (name ^ ": exits 1") 1 code;
      let _, err = dump () in
      check bool_ (name ^ ": corrupt-state") true
        (contains ~sub:"error[state/corrupt-state]" err);
      check bool_ (name ^ ": located") true
        (contains ~sub:(Printf.sprintf ".cls:%d:" line) err))
    corrupt_states

(* A lexer error anywhere outranks a parse error, even one earlier in
   the file: the parser pulls tokens lazily, so on a parse error it must
   still lex the rest of the input before reporting. *)
let test_lexer_error_precedence () =
  let src = "resource = = {\n}\nx = \"ok\"\ny = @\n" in
  (match Cloudless_hcl.Parser.parse ~file:"t.tf" src with
  | exception Cloudless_error.Error { code = "lex-error"; message; span; _ } ->
      check string_ "message" "unexpected character '@'" message;
      check int_ "line" 4 (Loc.line span);
      check int_ "col" 5 span.Loc.start_pos.Loc.col
  | exception Cloudless_error.Error { code = "parse-error"; message; _ } ->
      Alcotest.failf "parse error %S outranked the lexer error" message
  | _ -> Alcotest.fail "expected a lexer error");
  let io, dump = quiet_io () in
  let file = temp_file src in
  check int_ "validate exits 1" 1
    (Cli.validate ~io ~file ~state_path:(temp_path ".cls") ());
  let out, _ = dump () in
  check bool_ "validate reports the lexer error" true
    (contains ~sub:"error[syntax/lex-error]" out
    && contains ~sub:".tf:4:5-" out
    && contains ~sub:"unexpected character '@'" out)

(* ------------------------------------------------------------------ *)
(* Totality: every handler over malformed inputs                       *)
(* ------------------------------------------------------------------ *)

(* Each row drives one in-process CLI handler or lifecycle verb over
   one malformed input and expects exit 1 (a lifecycle [Error _]
   counts as 1) and a rendered [error[stage/code]] diagnostic, located
   in the malformed file where the input is one — never an escaped
   exception.  A row lists the pieces of text its output must
   contain. *)

let policy_with ?(guard = "") message =
  Printf.sprintf
    "policy \"p\" {\n  on = \"plan\"\n%s  action \"a\" {\n    kind    = \"deny\"\n    message = %s\n  }\n}\n"
    guard message

let one_vpc = "resource \"aws_vpc\" \"v\" {\n  region = \"us-east-1\"\n}\n"

let guarded_vpc cidr =
  Printf.sprintf
    "resource \"aws_vpc\" \"v\" {\n  cidr_block = %S\n  region     = \"us-east-1\"\n  lifecycle {\n    prevent_destroy = true\n  }\n}\n"
    cidr

(* A handler's (exit code, everything it printed). *)
let cli run =
  let io, dump = quiet_io () in
  let code = run io in
  let out, err = dump () in
  (code, out ^ err)

let lifecycle run =
  match run (Lifecycle.create ()) with
  | Ok _ -> (0, "")
  | Error e ->
      ( 1,
        String.concat "\n"
          (List.map Diagnostic.to_string (Lifecycle.error_diagnostics e)) )

(* [code]'s diagnostic located in [file]. *)
let located code file = [ Printf.sprintf "error[%s] %s:" code file ]

let policy_row name policy =
  let policies_path = temp_file ~suffix:".hcl" policy in
  ( name,
    located "policy/policy-error" policies_path,
    fun () ->
      cli (fun io ->
          Cli.policy_check ~io ~file:(temp_file one_vpc) ~policies_path
            ~state_path:(temp_path ".cls") ()) )

(* The configuration texts of the table's malformed-config rows, also
   inputs of the expansion equivalence tests (test_hcl_eval). *)
let lex_src = "x = @\n"
let parse_src = "resource \"a\" {\n  x = (1\n}\n"
let structure_src = "resource \"a_b\" \"x\" {}\nresource \"a_b\" \"x\" {}\n"
let eval_src = "resource \"aws_vpc\" \"v\" {\n  cidr_block = var.missing\n}\n"
let develop_src = "resource \"aws_vpc\" \"v\" {\n  cidr_block = [1][5]\n}\n"

let key_src body =
  Printf.sprintf
    "locals {\n  m = { a = \"x\" }\n}\nresource \"aws_vpc\" \"v\" {\n%s  region = \"us-east-1\"\n}\n"
    body

(* (row name, what the key was for, resource body) *)
let key_cases =
  [
    ("list for_each element: plan", "for_each element", "  for_each = [[1]]\n");
    ("list map index: plan", "map key", "  cidr_block = local.m[[1]]\n");
    ( "list for-expression key: plan",
      "for key",
      "  tags = { for k in [\"a\"] : [k] => k }\n" );
    ("list object key: plan", "object key", "  tags = { ([1]) = \"x\" }\n");
  ]

let module_src = "module \"m\" {\n  source   = \"./m\"\n  for_each = [[1]]\n}\n"

(* A module call whose [count] or [for_each] the resource checks
   refuse: a negative count, and values unknown until [aws_vpc.v]
   exists. *)
let module_meta_src meta =
  Printf.sprintf
    "resource \"aws_vpc\" \"v\" {}\nmodule \"m\" {\n  source = \"./m\"\n  %s\n}\n" meta

(* (row name, meta-argument, message) *)
let module_meta_cases =
  [
    ("negative module count: develop", "count = -1", "negative count -1");
    ( "unknown module count: develop",
      "count = aws_vpc.v.n",
      "count depends on unknown value (aws_vpc.v.n)" );
    ( "unknown module for_each: develop",
      "for_each = aws_vpc.v.tags",
      "for_each depends on unknown value (aws_vpc.v.tags)" );
  ]

let negative_index_src = "resource \"aws_vpc\" \"v\" {\n  cidr_block = [1][-1]\n}\n"
let duplicate_key_src = "resource \"aws_vpc\" \"v\" {\n  for_each = [\"a\", \"a\"]\n}\n"
let name_filter_src = "data \"aws_ami\" \"x\" {\n  name_filter = [\"a\", \"b\"]\n}\n"

(* A bare [local] names no local, so block ordering cannot see the
   resources its locals read: it is an eval error, like a bare
   [count]. *)
let bare_local_src =
  "locals { v = aws_vpc.a.id }\n\
   resource \"aws_subnet\" \"s\" { all = local }\n\
   resource \"aws_vpc\" \"a\" {}\n"

let indexed_local_src =
  "resource \"aws_vpc\" \"a\" { x = local[\"v\"] }\nlocals { v = 1 }\n"

(* Expressions that make a float that is not finite: a literal out of
   range, arithmetic and a function call. *)
let non_finite_exprs =
  [ "1e999"; "pow(10, 400)"; "1 / 0.0"; "-1 / 0.0"; "0.0 / 0.0"; "1e308 * 10" ]

let non_finite_src expr =
  Printf.sprintf "resource \"aws_vpc\" \"v\" {\n  region = \"us-east-1\"\n  tags   = { w = %s }\n}\n"
    expr

let malformed_configs =
  [ lex_src; parse_src; structure_src; eval_src; develop_src; cycle_hcl ]
  @ List.map (fun (_, _, body) -> key_src body) key_cases
  @ [ module_src; name_filter_src; bare_local_src; indexed_local_src ]
  @ List.map (fun (_, meta, _) -> module_meta_src meta) module_meta_cases
  @ [ negative_index_src; duplicate_key_src ]
  @ List.map non_finite_src non_finite_exprs

(* No state records a number that is not finite, or reads one back:
   validate, plan and apply each refuse such an expression with an eval
   error located at it, and write no state. *)
let test_cli_non_finite () =
  List.iter
    (fun expr ->
      let file = temp_file (non_finite_src expr) in
      let where =
        Printf.sprintf "error[references/eval-error] %s:3:18-%d: " file
          (18 + String.length expr)
      in
      List.iter
        (fun (command, run) ->
          let state_path = temp_path ".cls" in
          let name = Printf.sprintf "%s: %s" expr command in
          let code, text = cli (run ~state_path) in
          check int_ (name ^ " exits 1") 1 code;
          if not (contains ~sub:where text && contains ~sub:"is not a finite number" text)
          then Alcotest.failf "%s: expected %S in:\n%s" name where text;
          check bool_ (name ^ " writes no state") false (Sys.file_exists state_path))
        [
          ("validate", fun ~state_path io -> Cli.validate ~io ~file ~state_path ());
          ("plan", fun ~state_path io -> Cli.plan ~io ~file ~state_path ());
          ("apply", fun ~state_path io -> Cli.apply ~io ~file ~state_path ());
        ])
    non_finite_exprs

(* A key computed from a value with no string form: an eval error
   located in the config file at the key's expression. *)
let key_row name ~what body =
  let file = temp_file (key_src body) in
  ( name,
    located "references/eval-error" file
    @ [ what ^ ": cannot convert list to string" ],
    fun () ->
      cli (fun io -> Cli.plan ~io ~file ~state_path:(temp_path ".cls") ()) )

let totality_rows () =
  let lex = temp_file lex_src in
  let parse = temp_file parse_src in
  let structure = temp_file structure_src in
  let eval = temp_file eval_src in
  let cycle = temp_file cycle_hcl in
  let corrupt_state =
    temp_file ~suffix:".cls" "state {\n  serial = \"abc\"\n}\n"
  in
  let journaled = temp_path ".cls" in
  Io_util.write_file (journaled ^ ".journal") "garbage\n{}\n";
  let change = temp_file ~suffix:".hcl" "change \"c\" {\n  canary = 0\n}\n" in
  let scenario = temp_file ~suffix:".scn" "tenants = abc\n" in
  [
    ( "lexer error: fmt",
      located "syntax/lex-error" lex,
      fun () -> cli (fun io -> Cli.fmt ~io ~file:lex ~in_place:false ()) );
    ( "parser error: validate",
      located "syntax/parse-error" parse,
      fun () ->
        cli (fun io ->
            Cli.validate ~io ~file:parse ~state_path:(temp_path ".cls") ()) );
    ( "structure error: plan",
      located "syntax/structure-error" structure,
      fun () ->
        cli (fun io ->
            Cli.plan ~io ~file:structure ~state_path:(temp_path ".cls") ()) );
    ( "eval error: apply",
      located "references/eval-error" eval,
      fun () ->
        cli (fun io -> Cli.apply ~io ~file:eval ~state_path:(temp_path ".cls") ())
    );
    ( "eval error: develop",
      [
        "error[references/eval-error] main.tf:2:16-22: list index 5 out of \
         bounds (length 1)";
      ],
      fun () ->
        lifecycle (fun t -> Lifecycle.develop t develop_src) );
    (let bare = temp_file bare_local_src in
     ( "bare local: plan",
       located "references/eval-error" bare
       @ [ ":2:35-40: \"local\" cannot be used as a bare value" ],
       fun () ->
         cli (fun io -> Cli.plan ~io ~file:bare ~state_path:(temp_path ".cls") ())
     ));
    (let indexed = temp_file indexed_local_src in
     ( "indexed bare local: validate",
       located "references/eval-error" indexed
       @ [ ":1:30-35: \"local\" cannot be used as a bare value" ],
       fun () ->
         cli (fun io ->
             Cli.validate ~io ~file:indexed ~state_path:(temp_path ".cls") ())
     ));
    ( "dependency cycle: plan",
      located "references/eval-error" cycle
      @ [ ":2:1-5:2: dependency cycle involving aws_security_group.a" ],
      fun () ->
        cli (fun io -> Cli.plan ~io ~file:cycle ~state_path:(temp_path ".cls") ())
    );
    (let guarded = temp_file (guarded_vpc "10.1.0.0/16") in
     ( "prevent_destroy: apply",
       located "plan/plan-blocked" guarded
       @ [
           ":1:1-7:2 (aws_vpc.v): replacement forced by cidr_block, but \
            lifecycle sets prevent_destroy";
         ],
       fun () ->
         let state_path = temp_path ".cls" in
         let apply file io = Cli.apply ~io ~file ~state_path () in
         match cli (apply (temp_file (guarded_vpc "10.0.0.0/16"))) with
         | 0, _ -> cli (apply guarded)
         | first -> first ));
  ]
  @ List.map (fun (name, what, body) -> key_row name ~what body) key_cases
  @ [
    ( "list module for_each element: develop",
      [
        "error[references/eval-error] main.tf:3:14-19: for_each element: \
         cannot convert list to string";
      ],
      fun () ->
        lifecycle (fun t ->
            Lifecycle.register_modules t
              [ ("./m", Cloudless_hcl.Config.parse ~file:"m.tf" "") ];
            Lifecycle.develop t module_src) );
  ]
  @ List.map
      (fun (name, meta, message) ->
        ( name,
          [ "error[references/eval-error] main.tf:2:1-5:2: " ^ message ],
          fun () ->
            lifecycle (fun t ->
                Lifecycle.register_modules t
                  [ ("./m", Cloudless_hcl.Config.parse ~file:"m.tf" "") ];
                Lifecycle.develop t (module_meta_src meta)) ))
      module_meta_cases
  @ [
    (let negative = temp_file negative_index_src in
     ( "negative list index: plan",
       located "references/eval-error" negative
       @ [ ":2:16-23: list index -1 out of bounds (length 1)" ],
       fun () ->
         cli (fun io ->
             Cli.plan ~io ~file:negative ~state_path:(temp_path ".cls") ()) ));
    (let duplicate = temp_file duplicate_key_src in
     ( "duplicate for_each key: plan",
       located "references/eval-error" duplicate
       @ [ ":2:14-24: for_each has duplicate key \"a\"" ],
       fun () ->
         cli (fun io ->
             Cli.plan ~io ~file:duplicate ~state_path:(temp_path ".cls") ()) ));
    ( "corrupt state: destroy",
      located "state/corrupt-state" corrupt_state,
      fun () -> cli (fun io -> Cli.destroy ~io ~state_path:corrupt_state ()) );
    ( "corrupt journal: apply",
      located "state/corrupt-journal" (journaled ^ ".journal"),
      fun () ->
        cli (fun io ->
            Cli.apply ~io ~file:(temp_file one_vpc) ~state_path:journaled ()) );
    policy_row "malformed policy: policy-check"
      "policy \"p\" {\n  on = \"plan\"\n}\n";
    ( "malformed change: rollout",
      located "policy/policy-error" change,
      fun () ->
        cli (fun io ->
            Cli.rollout ~io ~file:change
              ~scenario_path:(temp_file ~suffix:".scn" "tenants = 2\n")
              ()) );
    ( "malformed scenario: serve",
      located "syntax/scenario-syntax" scenario
      @ [ ":1:1-14: tenants expects an integer >= 1, got \"abc\"" ],
      fun () ->
        cli (fun io ->
            Cli.serve ~io ~metrics_path:Filename.null ~scenario_path:scenario ())
    );
    policy_row "list message: policy-check" (policy_with "[\"a\", \"b\"]");
    policy_row "map message: policy-check" (policy_with "{ a = 1 }");
    policy_row "interpolated list message: policy-check"
      (policy_with "\"${[1]}\"");
    policy_row "ill-typed guard: policy-check"
      (policy_with ~guard:"  when = obs.plan_creates > \"x\"\n" "\"m\"");
    ( "list name_filter: deploy",
      [
        "error[references/eval-error] main.tf:1:1-3:2: data.aws_ami.x: \
         cannot convert list to string";
      ],
      fun () ->
        lifecycle (fun t -> Lifecycle.deploy t name_filter_src)
    );
  ]

let test_totality_table () =
  List.iter
    (fun (name, expect, run) ->
      let code, text =
        match run () with
        | r -> r
        | exception e ->
            Alcotest.failf "%s: escaped %s" name (Printexc.to_string e)
      in
      check int_ (name ^ ": exits 1") 1 code;
      List.iter
        (fun sub ->
          if not (contains ~sub text) then
            Alcotest.failf "%s: expected %S in:\n%s" name sub text)
        expect)
    (totality_rows ())

(* Cloudless_error.protect must pass unknown exceptions through
   untouched: they are bugs, and swallowing them would hide the
   backtrace. *)
let test_boundary_passthrough () =
  (match Cloudless_error.protect (fun () -> 41 + 1) with
  | Ok n -> check int_ "ok passes through" 42 n
  | Error d -> Alcotest.failf "unexpected error: %s" (Diagnostic.to_string d));
  match Cloudless_error.protect (fun () -> raise Exit) with
  | exception Exit -> ()
  | Ok _ | Error _ -> Alcotest.fail "foreign exception must propagate"

let suites =
  [
    ( "errors",
      [
        Alcotest.test_case "lifecycle: malformed HCL" `Quick
          test_lifecycle_malformed;
        Alcotest.test_case "lifecycle: unknown reference" `Quick
          test_lifecycle_unknown_ref;
        Alcotest.test_case "lifecycle: dependency cycle" `Quick
          test_lifecycle_cycle;
        Alcotest.test_case "boundary: dag cycle to diagnostic" `Quick
          test_boundary_dag_cycle;
        Alcotest.test_case "lifecycle: quota exceeded" `Quick
          test_lifecycle_quota;
        Alcotest.test_case "cli: malformed HCL exits 1" `Quick test_cli_malformed;
        Alcotest.test_case "cli: validate exit codes" `Quick
          test_cli_validate_exit_code;
        Alcotest.test_case "cli: dependency cycle exits 1" `Quick test_cli_cycle;
        Alcotest.test_case "cli: quota deploy exits 2" `Quick test_cli_quota;
        Alcotest.test_case "cli: corrupt state exits 1" `Quick
          test_cli_corrupt_state;
        Alcotest.test_case "cli: malformed state entries are corrupt-state" `Quick
          test_cli_corrupt_state_table;
        Alcotest.test_case "lexer error outranks an earlier parse error" `Quick
          test_lexer_error_precedence;
        Alcotest.test_case "boundary: foreign exceptions propagate" `Quick
          test_boundary_passthrough;
        Alcotest.test_case "every handler is total over malformed inputs"
          `Quick test_totality_table;
        Alcotest.test_case "cli: a number that is not finite exits 1" `Quick
          test_cli_non_finite;
      ] );
  ]
