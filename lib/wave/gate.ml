(** The between-wave policy/health gate.

    After a wave's applies complete (and before the next wave is
    admitted), the rollout driver collects one {!health} snapshot and
    the gate folds it into a verdict.  Every failing signal is
    reported — a gate that says only "fail" teaches the operator
    nothing about which guardrail fired. *)

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

let calm =
  {
    violations = [];
    failed_requests = 0;
    open_cells = 0;
    episode_faults = 0;
    projected_cost = None;
  }

type verdict = Pass | Fail of string list

let evaluate (c : Change.t) (h : health) : verdict =
  let reasons = ref [] in
  let fail fmt = Fmt.kstr (fun s -> reasons := s :: !reasons) fmt in
  List.iter
    (fun (v : Rego_like.violation) ->
      fail "policy %s: %s%s" v.Rego_like.vcheck v.Rego_like.vmessage
        (match v.Rego_like.vaddr with
        | Some a -> " (" ^ Cloudless_hcl.Addr.to_string a ^ ")"
        | None -> ""))
    h.violations;
  if h.failed_requests > 0 then
    fail "%d request(s) failed to converge in the wave" h.failed_requests;
  if h.open_cells > 0 then
    fail "%d circuit-breaker cell(s) open" h.open_cells;
  (match (c.Change.budget, h.projected_cost) with
  | Some ceiling, Some projected when projected > ceiling ->
      fail "projected hourly cost %.2f exceeds budget %.2f" projected ceiling
  | _ -> ());
  match List.rev !reasons with [] -> Pass | rs -> Fail rs
