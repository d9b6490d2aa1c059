(** The between-wave policy/health gate: one {!health} snapshot per
    wave boundary folds into a {!verdict}, every failing signal
    reported. *)

module Rego_like = Cloudless_policy.Rego_like

type health = {
  violations : Rego_like.violation list;
      (** gate-predicate violations over the touched tenants'
          evaluated instances *)
  failed_requests : int;
      (** units of work inside the wave (requests, rollbacks, repairs)
          that ended in a typed error or with a failed change *)
  open_cells : int;  (** circuit-breaker cells currently open (E17) *)
  episode_faults : int;  (** injected-fault responses during the wave *)
  projected_cost : float option;
      (** fleet hourly cost if the rollout continues *)
}

(** All-quiet snapshot; harnesses override the fields they measure. *)
val calm : health

type verdict = Pass | Fail of string list

val evaluate : Change.t -> health -> verdict
