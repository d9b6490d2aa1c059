(** The observation/action policy language (§3.6).

    A policy pairs *observations* (metrics, resource counts, drift
    events, cost — anything exposed at a given lifecycle phase) with
    *actions* (evolve the IaC program: change a count, set an
    attribute, deny a plan, notify), written in the same HCL the
    infrastructure uses. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap

(** Lifecycle phase a policy is registered for. *)
type phase = On_plan | On_telemetry | On_drift | On_update

val phase_of_string : string -> phase option

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

(** Parse one [action "name" { ... }] block.  Shared with the wave
    subsystem's [change] blocks, which reuse the action vocabulary. *)
val parse_action : Hcl.Ast.block -> action

val parse_policy : Hcl.Ast.block -> t

(** Parse a policy file (a sequence of [policy "name" { ... }] blocks).
    A malformed block raises a [policy/policy-error]
    {!Cloudless_error.Error} located at it. *)
val parse : file:string -> string -> t list

(** Observation context: the [obs.*] namespace for one evaluation. *)
type obs = Value.t Smap.t

val obs_of_list : (string * Value.t) list -> obs

(** Rewrite surface [obs.x] references to [var.__obs.x] so the stock
    HCL evaluator handles them; [read x] is called for each [obs.x]. *)
val rewrite_obs : ?read:(string -> unit) -> Hcl.Ast.expr -> Hcl.Ast.expr

val eval_with_obs : obs -> Hcl.Ast.expr -> Value.t

(** Does the policy fire under these observations?  A guard that
    reads an observation the current phase does not provide simply
    does not fire; any other failure of the guard raises a located
    [policy/policy-error]. *)
val triggered : t -> obs -> bool

(** A concrete decision produced by a fired policy. *)
type decision =
  | D_set_count of { target : string; count : int }
  | D_set_attr of { target : string; attr : string; value : Value.t }
  | D_deny of string
  | D_notify of string

val decision_to_string : decision -> string

(** Evaluate a fired policy's actions.  A deny or notify message that
    is a list or a map raises a [policy/policy-error] located at it. *)
val decide : t -> obs -> decision list
