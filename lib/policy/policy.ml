(** The observation/action policy language (§3.6).

    The paper's abstraction: a policy pairs *observations* (metrics,
    resource counts, drift events, cost — anything exposed at a given
    lifecycle phase) with *actions* (evolve the IaC program: change a
    count, set an attribute, deny a plan, notify).  Policies are
    written in the same HCL the infrastructure uses — no Rego/Datalog
    detour, which is precisely the usability critique the paper makes
    of existing tools:

    {v
    policy "scale_vpn_tunnels" {
      on   = "telemetry"
      when = obs.vpn_utilization > 0.8

      action "add_tunnel" {
        kind   = "set_count"
        target = "aws_vpn_connection.tunnel"
        value  = obs.tunnel_count + 1
      }
    }
    v}

    [when] and [value] are ordinary HCL expressions; the [obs.*]
    namespace is bound at evaluation time from the current phase's
    observation context. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap

type phase = On_plan | On_telemetry | On_drift | On_update

let phase_of_string = function
  | "plan" -> Some On_plan
  | "telemetry" -> Some On_telemetry
  | "drift" -> Some On_drift
  | "update" -> Some On_update
  | _ -> None

type action_kind =
  | Set_count of { target : string; value : Hcl.Ast.expr }
      (** rewrite [count] of resource [target] ("type.name") *)
  | Set_attr of { target : string; attr : string; value : Hcl.Ast.expr }
  | Deny of { message : Hcl.Ast.expr }  (** reject the plan (admission) *)
  | Notify of { message : Hcl.Ast.expr }

type action = { aname : string; kind : action_kind }

type t = {
  pname : string;
  phase : phase;
  when_ : Hcl.Ast.expr;  (** guard over observations *)
  actions : action list;
  pspan : Hcl.Loc.span;
}

let errf span fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Policy
    ~code:"policy-error" ~span fmt

(* ------------------------------------------------------------------ *)
(* Parsing (HCL blocks -> policies)                                    *)
(* ------------------------------------------------------------------ *)

let parse_action (b : Hcl.Ast.block) : action =
  let body = b.Hcl.Ast.bbody in
  let name = match b.Hcl.Ast.labels with [ n ] -> n | _ -> "action" in
  let get attr =
    match Hcl.Ast.attr body attr with
    | Some e -> e
    | None -> errf b.Hcl.Ast.bspan "action %S: missing %S" name attr
  in
  let literal attr =
    match (get attr).Hcl.Ast.desc with
    | Hcl.Ast.Template [ Hcl.Ast.Lit s ] -> s
    | _ -> errf b.Hcl.Ast.bspan "action %S: %S must be a literal string" name attr
  in
  let kind =
    match literal "kind" with
    | "set_count" -> Set_count { target = literal "target"; value = get "value" }
    | "set_attr" ->
        Set_attr
          { target = literal "target"; attr = literal "attr"; value = get "value" }
    | "deny" -> Deny { message = get "message" }
    | "notify" -> Notify { message = get "message" }
    | k -> errf b.Hcl.Ast.bspan "action %S: unknown kind %S" name k
  in
  { aname = name; kind }

let parse_policy (b : Hcl.Ast.block) : t =
  let body = b.Hcl.Ast.bbody in
  let name = match b.Hcl.Ast.labels with [ n ] -> n | _ -> errf b.Hcl.Ast.bspan "policy needs one label" in
  let phase =
    match Hcl.Ast.attr body "on" with
    | Some { Hcl.Ast.desc = Hcl.Ast.Template [ Hcl.Ast.Lit s ]; _ } -> (
        match phase_of_string s with
        | Some p -> p
        | None -> errf b.Hcl.Ast.bspan "policy %S: unknown phase %S" name s)
    | _ -> errf b.Hcl.Ast.bspan "policy %S: missing 'on' phase" name
  in
  let when_ =
    match Hcl.Ast.attr body "when" with
    | Some e -> e
    | None -> Hcl.Ast.mk (Hcl.Ast.Bool true)
  in
  let actions =
    Hcl.Ast.blocks_of_type body "action" |> List.map parse_action
  in
  if actions = [] then errf b.Hcl.Ast.bspan "policy %S has no actions" name;
  { pname = name; phase; when_; actions; pspan = b.Hcl.Ast.bspan }

(** Parse a policy file (a sequence of [policy "name" { ... }] blocks). *)
let parse ~file src : t list =
  let body = Hcl.Parser.parse ~file src in
  List.map
    (fun (b : Hcl.Ast.block) ->
      match b.Hcl.Ast.btype with
      | "policy" -> parse_policy b
      | ty -> errf b.Hcl.Ast.bspan "expected policy block, found %S" ty)
    body.Hcl.Ast.blocks

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Observation context: the [obs.*] namespace for one evaluation. *)
type obs = Value.t Smap.t

let obs_of_list kvs : obs = Smap.of_seq (List.to_seq kvs)

(* [obs.x] is surface syntax; rewrite it to [var.__obs.x] so the stock
   evaluator handles it.  [read x] is called for each [obs.x]. *)
let rewrite_obs ?(read = ignore) (e : Hcl.Ast.expr) : Hcl.Ast.expr =
  let rec go (e : Hcl.Ast.expr) =
    let mk desc = { e with Hcl.Ast.desc } in
    match e.Hcl.Ast.desc with
    | Hcl.Ast.Var "obs" ->
        mk
          (Hcl.Ast.GetAttr
             (Hcl.Ast.mk (Hcl.Ast.Var "var"), "__obs"))
    | Hcl.Ast.GetAttr (inner, a) ->
        (match inner.Hcl.Ast.desc with Hcl.Ast.Var "obs" -> read a | _ -> ());
        mk (Hcl.Ast.GetAttr (go inner, a))
    | Hcl.Ast.Index (inner, i) -> mk (Hcl.Ast.Index (go inner, go i))
    | Hcl.Ast.Splat (inner, a) -> mk (Hcl.Ast.Splat (go inner, a))
    | Hcl.Ast.ListLit es -> mk (Hcl.Ast.ListLit (List.map go es))
    | Hcl.Ast.ObjectLit kvs ->
        mk
          (Hcl.Ast.ObjectLit
             (List.map
                (fun (k, v) ->
                  ( (match k with
                    | Hcl.Ast.Kexpr ke -> Hcl.Ast.Kexpr (go ke)
                    | k -> k),
                    go v ))
                kvs))
    | Hcl.Ast.Call (f, args, ex) -> mk (Hcl.Ast.Call (f, List.map go args, ex))
    | Hcl.Ast.Unop (op, a) -> mk (Hcl.Ast.Unop (op, go a))
    | Hcl.Ast.Binop (op, a, b) -> mk (Hcl.Ast.Binop (op, go a, go b))
    | Hcl.Ast.Cond (c, a, b) -> mk (Hcl.Ast.Cond (go c, go a, go b))
    | Hcl.Ast.Paren a -> mk (Hcl.Ast.Paren (go a))
    | Hcl.Ast.Template parts ->
        mk
          (Hcl.Ast.Template
             (List.map
                (function
                  | Hcl.Ast.Lit s -> Hcl.Ast.Lit s
                  | Hcl.Ast.Interp e -> Hcl.Ast.Interp (go e))
                parts))
    | Hcl.Ast.ForList fc ->
        mk
          (Hcl.Ast.ForList
             { fc with Hcl.Ast.coll = go fc.Hcl.Ast.coll; body = go fc.Hcl.Ast.body })
    | Hcl.Ast.ForMap (fc, v) ->
        mk
          (Hcl.Ast.ForMap
             ( { fc with Hcl.Ast.coll = go fc.Hcl.Ast.coll; body = go fc.Hcl.Ast.body },
               go v ))
    | Hcl.Ast.Null | Hcl.Ast.Bool _ | Hcl.Ast.Int _ | Hcl.Ast.Float _
    | Hcl.Ast.Var _ ->
        e
  in
  go e

let eval_obs (obs : obs) (e : Hcl.Ast.expr) : Value.t =
  Hcl.Eval.eval_expr ~vars:(Smap.singleton "__obs" (Value.Vmap obs)) e

let eval_with_obs (obs : obs) (e : Hcl.Ast.expr) : Value.t =
  eval_obs obs (rewrite_obs e)

(** Does the policy fire under these observations?

    A guard that reads an observation the current phase does not
    provide simply does not fire — the observation vocabulary evolves
    across lifecycle phases (§3.6), so absence is normal, not an
    error.  Any other failure of the guard is a policy error. *)
let triggered (p : t) (obs : obs) : bool =
  let provided = ref true in
  let guard =
    rewrite_obs
      ~read:(fun name -> if not (Smap.mem name obs) then provided := false)
      p.when_
  in
  !provided
  &&
  match eval_obs obs guard with
  | Value.Vbool b -> b
  | Value.Vunknown _ -> false
  | v ->
      errf p.pspan "policy %S: 'when' must evaluate to bool, got %s" p.pname
        (Value.type_name v)
  | exception Cloudless_error.Error d ->
      errf
        (if Hcl.Loc.is_dummy d.span then p.when_.Hcl.Ast.espan else d.span)
        "policy %S: 'when': %s" p.pname d.message

(** A concrete decision produced by a fired policy. *)
type decision =
  | D_set_count of { target : string; count : int }
  | D_set_attr of { target : string; attr : string; value : Value.t }
  | D_deny of string
  | D_notify of string

let decision_to_string = function
  | D_set_count { target; count } ->
      Printf.sprintf "set count of %s to %d" target count
  | D_set_attr { target; attr; value } ->
      Printf.sprintf "set %s.%s = %s" target attr (Value.show value)
  | D_deny msg -> "deny: " ^ msg
  | D_notify msg -> "notify: " ^ msg

(* A deny or notify message as text: a list or a map has none. *)
let message_text obs (a : action) (e : Hcl.Ast.expr) =
  match eval_with_obs obs e with
  | (Value.Vlist _ | Value.Vmap _) as v ->
      errf e.Hcl.Ast.espan "action %S: message must be a string, got %s"
        a.aname (Value.type_name v)
  | v -> Value.to_string v

(** Evaluate a fired policy's actions. *)
let decide (p : t) (obs : obs) : decision list =
  List.map
    (fun a ->
      match a.kind with
      | Set_count { target; value } -> (
          match eval_with_obs obs value with
          | Value.Vint n -> D_set_count { target; count = max 0 n }
          | Value.Vfloat f -> D_set_count { target; count = max 0 (int_of_float f) }
          | v ->
              errf p.pspan "action %S: count must be a number, got %s" a.aname
                (Value.type_name v))
      | Set_attr { target; attr; value } ->
          D_set_attr { target; attr; value = eval_with_obs obs value }
      | Deny { message } -> D_deny (message_text obs a message)
      | Notify { message } -> D_notify (message_text obs a message))
    p.actions
