(** The infrastructure controller (§3.6): holds the policy set; at each
    lifecycle phase the caller provides the phase's observation context
    and, depending on the phase, either a plan (admission control) or a
    configuration (actions evolve the IaC program, which the caller
    then replans and redeploys — policies never touch the cloud
    directly). *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap
module Plan = Cloudless_plan.Plan
module State = Cloudless_state.State

type t

val create : Policy.t list -> t

(** Source that does not parse raises a syntax error, and a malformed
    policy block a [policy/policy-error]; both are located
    {!Cloudless_error.Error}s. *)
val of_source : file:string -> string -> t

(** Notifications emitted so far, oldest first. *)
val notifications : t -> string list

type tick_result = {
  decisions : Policy.decision list;
  denied : string option;  (** first deny message, if any *)
  new_config : Hcl.Config.t option;  (** rewritten config, when it changed *)
}

(** Standard observations derivable from state + plan ([resource_count],
    [count_by_type], [hourly_cost], plan deltas and projected cost);
    harnesses extend via [extra]. *)
val standard_obs :
  ?state:State.t ->
  ?plan:Plan.t ->
  ?extra:(string * Value.t) list ->
  unit ->
  Policy.obs

(** Split ["type.name"] into [("type", "name")]. *)
val split_target : string -> string * string

(** Apply one decision to a configuration, returning the updated
    configuration and whether anything changed. *)
val apply_decision : Hcl.Config.t -> Policy.decision -> Hcl.Config.t * bool

(** Run all policies registered for [phase].  [config] is required for
    phases whose actions evolve the program; the result carries the
    rewritten configuration when any action changed it. *)
val tick :
  t -> phase:Policy.phase -> obs:Policy.obs -> ?config:Hcl.Config.t -> unit ->
  tick_result

(** (evaluations, fired) counters. *)
val stats : t -> int * int
