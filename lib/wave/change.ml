(** Fleet-wide bulk-change specs (E18).

    A *change* states an intent once — "bump [instance_type]
    everywhere", "forbid public buckets" — in the same HCL the
    infrastructure and policies use, and the wave rollout machinery
    carries it across the whole fleet:

    {v
    change "bump_itype" {
      canary = 1          # tenants in the first wave
      growth = 3          # wave k+1 is growth x the size of wave k
      budget = 250.0      # optional projected-hourly-cost ceiling

      action "bump" {
        kind   = "set_attr"
        target = "aws_instance.*"     # "*" = every resource of the type
        attr   = "instance_type"
        value  = "t3.large"
      }

      gate "no_public_acl" {
        kind    = "attr_equals"
        rtype   = "aws_s3_bucket"
        attr    = "acl"
        value   = "public-read"
        message = "public buckets are forbidden"
      }
    }
    v}

    [action] blocks reuse the policy DSL's action vocabulary
    ({!Policy.parse_action}); [gate] blocks compile to the baseline
    checker's predicates ({!Rego_like.check}), evaluated between waves
    over the evaluated instances of every tenant the change has
    touched so far. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap
module Policy = Cloudless_policy.Policy
module Rego_like = Cloudless_policy.Rego_like

type t = {
  cname : string;
  actions : Policy.action list;
  canary : int;  (** tenants in the first wave (>= 1) *)
  growth : int;  (** geometric wave-size factor (>= 1) *)
  gates : Rego_like.check list;
      (** deny-predicates evaluated at every wave boundary *)
  budget : float option;  (** projected fleet hourly-cost ceiling *)
  cspan : Hcl.Loc.span;
}

let errf span fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Policy
    ~code:"policy-error" ~span fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let literal_of b attr =
  match Hcl.Ast.attr b.Hcl.Ast.bbody attr with
  | Some { Hcl.Ast.desc = Hcl.Ast.Template [ Hcl.Ast.Lit s ]; _ } -> Some s
  | Some _ ->
      errf b.Hcl.Ast.bspan "gate %S: %S must be a literal string"
        (match b.Hcl.Ast.labels with [ n ] -> n | _ -> "?")
        attr
  | None -> None

let int_of b attr =
  match Hcl.Ast.attr b.Hcl.Ast.bbody attr with
  | Some { Hcl.Ast.desc = Hcl.Ast.Int n; _ } -> Some n
  | Some _ ->
      errf b.Hcl.Ast.bspan "%S must be an integer literal" attr
  | None -> None

let parse_gate (b : Hcl.Ast.block) : Rego_like.check =
  let name = match b.Hcl.Ast.labels with [ n ] -> n | _ -> "gate" in
  let req attr =
    match literal_of b attr with
    | Some s -> s
    | None -> errf b.Hcl.Ast.bspan "gate %S: missing %S" name attr
  in
  let deny_message =
    match literal_of b "message" with
    | Some m -> m
    | None -> Printf.sprintf "gate %s violated" name
  in
  let predicate =
    match req "kind" with
    | "attr_equals" ->
        Rego_like.Attr_equals
          {
            rtype = req "rtype";
            attr = req "attr";
            value = Value.Vstring (req "value");
          }
    | "attr_present" ->
        Rego_like.Attr_present { rtype = req "rtype"; attr = req "attr" }
    | "attr_absent" ->
        Rego_like.Attr_absent { rtype = req "rtype"; attr = req "attr" }
    | "type_forbidden" -> Rego_like.Type_forbidden (req "rtype")
    | "count_at_most" ->
        Rego_like.Count_at_most
          {
            rtype = req "rtype";
            limit =
              (match int_of b "limit" with
              | Some n -> n
              | None -> errf b.Hcl.Ast.bspan "gate %S: missing \"limit\"" name);
          }
    | k -> errf b.Hcl.Ast.bspan "gate %S: unknown kind %S" name k
  in
  { Rego_like.cname = name; predicate; deny_message }

let parse_change (b : Hcl.Ast.block) : t =
  let body = b.Hcl.Ast.bbody in
  let name =
    match b.Hcl.Ast.labels with
    | [ n ] -> n
    | _ -> errf b.Hcl.Ast.bspan "change needs one label"
  in
  let canary = Option.value ~default:1 (int_of b "canary") in
  let growth = Option.value ~default:2 (int_of b "growth") in
  if canary < 1 then errf b.Hcl.Ast.bspan "change %S: canary must be >= 1" name;
  if growth < 1 then errf b.Hcl.Ast.bspan "change %S: growth must be >= 1" name;
  let budget =
    match Hcl.Ast.attr body "budget" with
    | Some { Hcl.Ast.desc = Hcl.Ast.Float f; _ } -> Some f
    | Some { Hcl.Ast.desc = Hcl.Ast.Int n; _ } -> Some (float_of_int n)
    | Some _ -> errf b.Hcl.Ast.bspan "change %S: budget must be a number" name
    | None -> None
  in
  let actions =
    Hcl.Ast.blocks_of_type body "action" |> List.map Policy.parse_action
  in
  if actions = [] then errf b.Hcl.Ast.bspan "change %S has no actions" name;
  let gates = Hcl.Ast.blocks_of_type body "gate" |> List.map parse_gate in
  { cname = name; actions; canary; growth; gates; budget; cspan = b.Hcl.Ast.bspan }

(** Parse a change file (a sequence of [change "name" { ... }] blocks). *)
let parse ~file src : t list =
  let body = Hcl.Parser.parse ~file src in
  List.map
    (fun (b : Hcl.Ast.block) ->
      match b.Hcl.Ast.btype with
      | "change" -> parse_change b
      | ty -> errf b.Hcl.Ast.bspan "expected change block, found %S" ty)
    body.Hcl.Ast.blocks

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)
(* ------------------------------------------------------------------ *)

(** Evaluate the change's actions into concrete decisions (the policy
    engine's decision vocabulary, so config rewriting is shared). *)
let decide ?(obs = Smap.empty) (c : t) : Policy.decision list =
  let pseudo =
    {
      Policy.pname = c.cname;
      phase = Policy.On_update;
      when_ = Hcl.Ast.mk (Hcl.Ast.Bool true);
      actions = c.actions;
      pspan = c.cspan;
    }
  in
  Policy.decide pseudo obs
