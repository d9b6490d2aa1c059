(** Fleet-wide bulk-change specs (E18): an intent stated once in HCL
    ([change "name" { ... }] blocks), carried across the fleet by the
    wave rollout machinery.  [action] sub-blocks reuse the policy
    DSL's action vocabulary; [gate] sub-blocks compile to
    {!Rego_like.check} predicates evaluated at every wave boundary. *)

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

val parse_gate : Hcl.Ast.block -> Rego_like.check
val parse_change : Hcl.Ast.block -> t

(** Parse a change file (a sequence of [change "name" { ... }] blocks).
    A malformed block raises a [policy/policy-error]
    {!Cloudless_error.Error} located at it. *)
val parse : file:string -> string -> t list

(** Evaluate the change's actions into concrete decisions (the policy
    engine's decision vocabulary, so config rewriting is shared).
    [obs] defaults to the empty observation context — bulk changes are
    usually literal. *)
val decide : ?obs:Policy.obs -> t -> Policy.decision list
