(** Rollback planning (§3.4).

    The paper's observation: "simply applying a previous configuration
    doesn't always roll back the infrastructure to its intended
    previous state" — because (a) some attribute changes are not
    reversible in place (force-new attributes), and (b) the live
    resource may carry modifications that were never captured in any
    configuration (out-of-band changes), which naive re-application
    silently ignores.

    Two strategies:

    - {!Naive_reapply} (the baseline): diff the target state against
      the *recorded* current state only — exactly what replaying the
      old configuration does.  Misses out-of-band modifications.
    - {!Reversibility_aware}: consult the *live* cloud attributes,
      classify each divergence as reversible (plain update back),
      irreversible (destroy + recreate), or unmanaged-drift (reset),
      and emit the minimal redeployment achieving the target. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Schema = Cloudless_schema

type strategy = Naive_reapply | Reversibility_aware

type classification =
  | Unchanged
  | Reversible of Plan.attr_change list
  | Irreversible of { changes : Plan.attr_change list; reasons : string list }

(* Attributes the cloud computes are expected to differ (fresh ids
   etc.); they never count as divergence. *)
let managed_attrs rtype attrs =
  match Schema.Catalog.find rtype with
  | None ->
      (* be conservative: ignore the universally-computed trio *)
      Smap.filter (fun k _ -> not (List.mem k [ "id"; "arn"; "region" ])) attrs
  | Some schema ->
      let computed = Schema.Resource_schema.computed_attr_names schema in
      Smap.filter (fun k _ -> not (List.mem k computed)) attrs

let diff_managed rtype ~target ~actual : Plan.attr_change list =
  let target = managed_attrs rtype target and actual = managed_attrs rtype actual in
  let keys =
    List.sort_uniq String.compare
      (List.map fst (Smap.bindings target) @ List.map fst (Smap.bindings actual))
  in
  List.filter_map
    (fun k ->
      let tv = Smap.find_opt k target and av = Smap.find_opt k actual in
      match (tv, av) with
      | Some t, Some a when Value.equal t a -> None
      | None, None -> None
      | _ -> Some { Plan.attr = k; before = av; after = tv })
    keys

let classify rtype ~target ~actual : classification =
  match diff_managed rtype ~target ~actual with
  | [] -> Unchanged
  | changes -> (
      let force_new =
        match Schema.Catalog.find rtype with
        | Some schema -> Schema.Resource_schema.force_new_attrs schema
        | None -> []
      in
      match
        List.filter_map
          (fun (c : Plan.attr_change) ->
            if List.mem c.Plan.attr force_new then Some c.Plan.attr else None)
          changes
      with
      | [] -> Reversible changes
      | reasons -> Irreversible { changes; reasons })

type rollback_plan = {
  plan : Plan.t;
  strategy : strategy;
  redeployed : Addr.t list;  (** resources destroyed + recreated *)
  updated : Addr.t list;
  missed_divergences : Addr.t list;
      (** resources whose live attrs diverge but the strategy didn't
          notice (naive only) *)
}

(** Plan a rollback to [target].

    [current] is the recorded state after the failed/unwanted update;
    [live] reads the resource's *actual* cloud attributes (None = the
    resource no longer exists in the cloud). *)
let plan_rollback ~(strategy : strategy) ~(target : State.t)
    ~(current : State.t) ~(live : Addr.t -> Value.t Smap.t option) () :
    rollback_plan =
  let redeployed = ref [] and updated = ref [] and missed = ref [] in
  let changes = ref [] in
  let emit c = changes := c :: !changes in
  (* resources that should exist according to the target *)
  List.iter
    (fun (tr : State.resource_state) ->
      let addr = tr.State.addr in
      let rtype = tr.State.rtype in
      let current_entry = State.find_opt current addr in
      let observed =
        match strategy with
        | Naive_reapply ->
            (* the baseline trusts its state file *)
            Option.map (fun (r : State.resource_state) -> (State.attrs r)) current_entry
        | Reversibility_aware -> live addr
      in
      match (current_entry, observed) with
      | None, _ | _, None ->
          (* missing entirely: recreate *)
          redeployed := addr :: !redeployed;
          emit
            {
              Plan.addr;
              rtype;
              region = tr.State.region;
              action = Plan.Create;
              desired = Some (managed_attrs rtype (State.attrs tr));
              prior = None;
              deps = tr.State.deps;
              cbd = false;
            }
      | Some cur, Some actual -> (
          (match strategy with
          | Reversibility_aware -> ()
          | Naive_reapply -> (
              (* record what the naive strategy fails to see: the live
                 resource diverges but the recorded state looks clean *)
              match live addr with
              | Some live_attrs ->
                  let live_diff =
                    diff_managed rtype ~target:(State.attrs tr) ~actual:live_attrs
                  in
                  let recorded_diff =
                    diff_managed rtype ~target:(State.attrs tr) ~actual
                  in
                  if live_diff <> [] && recorded_diff = [] then
                    missed := addr :: !missed
              | None -> ()));
          match classify rtype ~target:(State.attrs tr) ~actual with
          | Unchanged -> ()
          | Reversible attr_changes ->
              updated := addr :: !updated;
              emit
                {
                  Plan.addr;
                  rtype;
                  region = cur.State.region;
                  action = Plan.Update attr_changes;
                  desired = Some (managed_attrs rtype (State.attrs tr));
                  prior = Some cur;
                  deps = tr.State.deps;
                  cbd = false;
                }
          | Irreversible { changes = attr_changes; reasons } ->
              redeployed := addr :: !redeployed;
              emit
                {
                  Plan.addr;
                  rtype;
                  region = cur.State.region;
                  action = Plan.Replace { changes = attr_changes; reasons };
                  desired = Some (managed_attrs rtype (State.attrs tr));
                  prior = Some cur;
                  deps = tr.State.deps;
                  cbd = false;
                }))
    (State.resources target);
  (* resources added after the target version must be destroyed *)
  List.iter
    (fun (cr : State.resource_state) ->
      if not (State.mem target cr.State.addr) then
        emit
          {
            Plan.addr = cr.State.addr;
            rtype = cr.State.rtype;
            region = cr.State.region;
            action = Plan.Delete;
            desired = None;
            prior = Some cr;
            deps = cr.State.deps;
            cbd = false;
          })
    (State.resources current);
  {
    plan = { Plan.changes = List.rev !changes; default_region = "us-east-1" };
    strategy;
    redeployed = List.rev !redeployed;
    updated = List.rev !updated;
    missed_divergences = List.rev !missed;
  }

(** After executing a rollback, measure residual divergence: managed
    attributes that still differ between the live cloud and the target
    state.  The paper's criterion for a *faithful* rollback is zero. *)
let residual_divergence ~(target : State.t)
    ~(live : Addr.t -> Value.t Smap.t option) : (Addr.t * string) list =
  List.concat_map
    (fun (tr : State.resource_state) ->
      match live tr.State.addr with
      | None -> [ (tr.State.addr, "missing from cloud") ]
      | Some actual ->
          diff_managed tr.State.rtype ~target:(State.attrs tr) ~actual
          |> List.map (fun (c : Plan.attr_change) -> (tr.State.addr, c.Plan.attr)))
    (State.resources target)
