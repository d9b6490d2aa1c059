(** The fleet-wide bulk-change rollout driver (E18).

    Binds the event-agnostic wave machinery ({!Cloudless_wave}) to a
    running {!Fleet}: per-tenant config rewrites submitted through the
    normal request path (journaled, locked, admission-metered), a
    polled quiescence check per wave, a policy/health gate at every
    wave boundary, and wave-scoped auto-rollback through the shards'
    dedicated rollback admission ({!Fleet.submit_rollback}) when the
    gate trips — halting every later wave.

    The driver holds the fleet by [ref] and deployments by
    [(tenant, dname)] {e name}: a crash-resume mid-rollout builds a new
    fleet instance with new deployment records, and every scheduled
    callback re-resolves through [!fleet_ref] at fire time.  Wave
    transitions are journaled ({!Journal.Wave_mark}) in the rollout's
    own journal; {!resume} restores the committed-wave boundary from it
    and re-submits from the first uncommitted wave (idempotent — an
    already-converged tenant's rewrite plans to nothing). *)

module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Metrics = Cloudless_obs.Metrics
module Breaker = Cloudless_deploy.Breaker
module Rego_like = Cloudless_policy.Rego_like
module Cost_model = Cloudless_policy.Cost_model
module Change = Cloudless_wave.Change
module Planner = Cloudless_wave.Planner
module Gate = Cloudless_wave.Gate
module Wave = Cloudless_wave.Wave
module Rollback = Cloudless_rollback.Rollback

type outcome =
  | Converged  (** every wave committed fleet-wide *)
  | Rolled_back of string list
      (** a gate tripped: the failing wave was rolled back, later waves
          halted; the payload is the gate's failure reasons *)
  | Halted of string list
      (** terminal without a rollback of our own — e.g. resumed from a
          journal whose durable record already ended the rollout *)

let outcome_to_string = function
  | Converged -> "converged"
  | Rolled_back rs -> "rolled_back: " ^ String.concat "; " rs
  | Halted rs -> "halted: " ^ String.concat "; " rs

type t = {
  change : Change.t;
  fleet : Fleet.t ref;
  journal : Journal.t option;
  check_period : float;
  mutable wave : Wave.t option;  (** built lazily, once deployments exist *)
  mutable tenants : string list;
      (** every target tenant, lexicographic — deterministic across a
          crash-resume so the resumed wave slicing matches the journal *)
  targets : (string, string list) Hashtbl.t;  (** tenant -> dnames *)
  rewrites : (string, string option) Hashtbl.t;
      (** config source -> {!Planner.rewrite_src}'s answer; a source
          that fails to parse is not kept, so it raises every time *)
  verdicts :
    (string * string, string * State.t * Rego_like.violation list) Hashtbl.t;
      (** (tenant, dname) -> the gate violations of its (config_src,
          state) at the last gate, reused while both are unchanged:
          the source by content, the state physically *)
  snapshots : (string * string, string * State.t) Hashtbl.t;
      (** (tenant, dname) -> pre-wave (config_src, state), captured at
          wave-submission time; the rollback target *)
  mutable baseline_failures : int;  (** work_failures at wave start *)
  mutable baseline_faults : int;  (** episode faults at wave start *)
  mutable outcome : outcome option;
  mutable dead : bool;  (** abandoned driver: scheduled callbacks no-op *)
  mutable mgmt_calls : int;
      (** management-plane reads spent on gating: quiescence polls,
          instance expansions, live-attr lookups — the overhead side of
          the blast-radius trade *)
  mutable gate_checks : int;
  mutable submitted : int;  (** wave apply requests submitted *)
  mutable rollbacks : int;  (** rollback work units submitted *)
  mutable gate_failed_at : float option;
  mutable rollback_done_at : float option;
  mutable events : (float * string) list;  (** newest first *)
}

let create ?journal ?(check_period = 30.) ~change fleet_ref () =
  {
    change;
    fleet = fleet_ref;
    journal;
    check_period;
    wave = None;
    tenants = [];
    targets = Hashtbl.create 64;
    rewrites = Hashtbl.create 8;
    verdicts = Hashtbl.create 64;
    snapshots = Hashtbl.create 64;
    baseline_failures = 0;
    baseline_faults = 0;
    outcome = None;
    dead = false;
    mgmt_calls = 0;
    gate_checks = 0;
    submitted = 0;
    rollbacks = 0;
    gate_failed_at = None;
    rollback_done_at = None;
    events = [];
  }

let event t fmt =
  Printf.ksprintf
    (fun msg ->
      let now = Cloud.now (Fleet.cloud !(t.fleet)) in
      t.events <- (now, msg) :: t.events)
    fmt

(* Every tenant with at least one deployment, lexicographic, and each
   tenant's dnames.  The order must be a pure function of the fleet's
   tenant set (not registration order): a resumed fleet rebuilds
   deployments in a different order, and the wave slicing must still
   line up with the journaled wave indices. *)
let capture_targets t =
  List.iter
    (fun (dep : Shard.deployment) ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt t.targets dep.Shard.tenant)
      in
      Hashtbl.replace t.targets dep.Shard.tenant (dep.Shard.dname :: cur))
    (Fleet.deployments !(t.fleet));
  Hashtbl.filter_map_inplace
    (fun _ dnames -> Some (List.sort compare dnames))
    t.targets;
  t.tenants <-
    List.sort compare
      (Hashtbl.fold (fun tenant _ acc -> tenant :: acc) t.targets [])

let ensure_wave t =
  match t.wave with
  | Some w -> w
  | None ->
      capture_targets t;
      let w =
        Wave.create ~change:t.change ~tenants:t.tenants ?journal:t.journal ()
      in
      t.wave <- Some w;
      w

let dnames_of t tenant =
  Option.value ~default:[] (Hashtbl.find_opt t.targets tenant)

let change_file t = Printf.sprintf "<change:%s>" t.change.Change.cname

(* The change's rewrite of one config source, once per source: a wave
   rewrites every tenant, and tenants share a handful of sources. *)
let rewrite t src =
  match Hashtbl.find_opt t.rewrites src with
  | Some r -> r
  | None ->
      let r = Planner.rewrite_src t.change ~file:(change_file t) src in
      Hashtbl.add t.rewrites src r;
      r

(* The gate predicates' violations on one deployment.  Each call is a
   management-plane read, whether or not the deployment's revision and
   state are the ones the last gate evaluated. *)
let violations t (dep : Shard.deployment) =
  t.mgmt_calls <- t.mgmt_calls + 1;
  let key = (dep.Shard.tenant, dep.Shard.dname) in
  match Hashtbl.find_opt t.verdicts key with
  | Some (src, state, vs)
    when state == dep.Shard.state && String.equal src dep.Shard.config_src ->
      vs
  | _ ->
      let vs =
        Rego_like.evaluate t.change.Change.gates
          (Shard.expand ~state:dep.Shard.state dep.Shard.config_src)
      in
      Hashtbl.replace t.verdicts key
        (dep.Shard.config_src, dep.Shard.state, vs);
      vs

(* ------------------------------------------------------------------ *)
(* The wave loop                                                       *)
(* ------------------------------------------------------------------ *)

let rec submit_wave t (w : Wave.wave) =
  let wv = ensure_wave t in
  let fleet = !(t.fleet) in
  let cloud = Fleet.cloud fleet in
  let now = Cloud.now cloud in
  Wave.start wv w.Wave.index ~time:now;
  t.baseline_failures <- Metrics.counter (Fleet.metrics fleet) "work_failures";
  t.baseline_faults <- Cloud.episode_fault_count cloud;
  let subs = ref 0 in
  List.iter
    (fun tenant ->
      List.iter
        (fun dname ->
          match Fleet.find_deployment fleet ~tenant ~dname with
          | None -> ()
          | Some dep ->
              Hashtbl.replace t.snapshots (tenant, dname)
                (dep.Shard.config_src, dep.Shard.state);
              (match rewrite t dep.Shard.config_src with
              | Some src ->
                  incr subs;
                  t.submitted <- t.submitted + 1;
                  ignore
                    (Fleet.submit_request fleet dep ~src
                      : [ `Accepted of int | `Deferred of int | `Rejected ])
              | None -> ()))
        (dnames_of t tenant))
    w.Wave.tenants;
  event t "wave %d: %d request(s) across %d tenant(s)" w.Wave.index !subs
    (List.length w.Wave.tenants);
  schedule_check t w

and schedule_check t (w : Wave.wave) =
  Cloud.schedule
    (Fleet.cloud !(t.fleet))
    ~delay:t.check_period
    (fun () -> if (not t.dead) && t.outcome = None then check t w)

(* Wave quiescence: every wave tenant's owning shard reports no queued
   or in-flight work for it.  Conservative — unrelated reconciles delay
   the boundary, they never let it pass early. *)
and check t (w : Wave.wave) =
  let fleet = !(t.fleet) in
  let pending =
    List.fold_left
      (fun acc tenant ->
        t.mgmt_calls <- t.mgmt_calls + 1;
        acc + Shard.tenant_pending (Fleet.owner_shard fleet tenant) tenant)
      0 w.Wave.tenants
  in
  if pending > 0 then schedule_check t w else gate t w

and gate t (w : Wave.wave) =
  let wv = ensure_wave t in
  let fleet = !(t.fleet) in
  let cloud = Fleet.cloud fleet in
  let now = Cloud.now cloud in
  t.gate_checks <- t.gate_checks + 1;
  (* Gate predicates run over every tenant the change has touched so
     far — a violation introduced by an earlier wave keeps blocking. *)
  let violations =
    List.concat_map
      (fun tenant ->
        List.concat_map
          (fun dname ->
            match Fleet.find_deployment fleet ~tenant ~dname with
            | None -> []
            | Some dep -> violations t dep)
          (dnames_of t tenant))
      (Wave.touched_tenants wv)
  in
  let failed_requests =
    Metrics.counter (Fleet.metrics fleet) "work_failures" - t.baseline_failures
  in
  let open_cells =
    List.fold_left
      (fun acc s ->
        acc
        + (match Shard.breaker s with
          | Some b -> Breaker.open_cells b
          | None -> 0))
      0 (Fleet.shards fleet)
  in
  let episode_faults = Cloud.episode_fault_count cloud - t.baseline_faults in
  let projected_cost =
    match t.change.Change.budget with
    | None -> None
    | Some _ ->
        (* Current fleet cost plus the wave's mean per-tenant delta
           extrapolated over the tenants the rollout has yet to reach. *)
        let cost_of tenant dname =
          match Fleet.find_deployment fleet ~tenant ~dname with
          | Some dep -> Cost_model.of_state dep.Shard.state
          | None -> 0.
        in
        let total =
          List.fold_left
            (fun acc (dep : Shard.deployment) ->
              acc +. Cost_model.of_state dep.Shard.state)
            0. (Fleet.deployments fleet)
        in
        let wave_delta =
          List.fold_left
            (fun acc tenant ->
              List.fold_left
                (fun acc dname ->
                  match Hashtbl.find_opt t.snapshots (tenant, dname) with
                  | Some (_, pre) ->
                      acc +. (cost_of tenant dname -. Cost_model.of_state pre)
                  | None -> acc)
                acc (dnames_of t tenant))
            0. w.Wave.tenants
        in
        let per_tenant =
          wave_delta /. float_of_int (max 1 (List.length w.Wave.tenants))
        in
        let remaining =
          List.length t.tenants - List.length (Wave.touched_tenants wv)
        in
        Some (total +. (per_tenant *. float_of_int (max 0 remaining)))
  in
  let health =
    { Gate.violations; failed_requests; open_cells; episode_faults;
      projected_cost }
  in
  match Gate.evaluate t.change health with
  | Gate.Pass -> (
      Wave.commit wv w.Wave.index ~time:now;
      event t "wave %d: gate passed, committed" w.Wave.index;
      match Wave.next wv with
      | Some w' -> submit_wave t w'
      | None ->
          t.outcome <- Some Converged;
          event t "rollout %s converged fleet-wide" t.change.Change.cname)
  | Gate.Fail reasons -> fail_wave t w reasons

(* Gate tripped: roll the failing wave back tenant by tenant through
   the shards' rollback admission, then mark + halt.  The inverse plan
   is computed at lock-grant time against the then-latest state; the
   pre-wave config revision is restored so later reconciles do not
   re-apply the bad change. *)
and fail_wave t (w : Wave.wave) reasons =
  let fleet = !(t.fleet) in
  let now = Cloud.now (Fleet.cloud fleet) in
  t.gate_failed_at <- Some now;
  event t "wave %d: gate FAILED (%s); rolling back" w.Wave.index
    (String.concat "; " reasons);
  let pending = ref 0 in
  let finish done_ =
    let wv = ensure_wave t in
    let now = Cloud.now (Fleet.cloud !(t.fleet)) in
    t.rollback_done_at <-
      Some
        (match t.rollback_done_at with
        | Some prev -> Float.max prev done_
        | None -> done_);
    decr pending;
    if !pending = 0 then begin
      Wave.roll_back wv w.Wave.index ~time:now;
      Wave.halt wv ~time:now;
      t.outcome <- Some (Rolled_back reasons);
      event t "wave %d rolled back; later waves halted" w.Wave.index
    end
  in
  List.iter
    (fun tenant ->
      List.iter
        (fun dname ->
          match
            ( Fleet.find_deployment fleet ~tenant ~dname,
              Hashtbl.find_opt t.snapshots (tenant, dname) )
          with
          | Some dep, Some (pre_src, pre_state) ->
              incr pending;
              t.rollbacks <- t.rollbacks + 1;
              let plan_of () =
                let fleet = !(t.fleet) in
                let cloud = Fleet.cloud fleet in
                let dep =
                  match Fleet.find_deployment fleet ~tenant ~dname with
                  | Some d -> d
                  | None -> dep
                in
                let live addr =
                  t.mgmt_calls <- t.mgmt_calls + 1;
                  match State.find_opt dep.Shard.state addr with
                  | None -> None
                  | Some r -> (
                      match Cloud.lookup cloud r.State.cloud_id with
                      | Some res -> Some (Cloud.attrs res)
                      | None -> None)
                in
                (Wave.inverse_plan ~target:pre_state ~current:dep.Shard.state
                   ~live)
                  .Rollback.plan
              in
              Fleet.submit_rollback fleet dep
                ~label:
                  (Printf.sprintf "%s/wave%d" t.change.Change.cname
                     w.Wave.index)
                ~plan_of ~restore_src:pre_src ~notify:finish ()
          | _ -> ())
        (dnames_of t tenant))
    w.Wave.tenants;
  if !pending = 0 then begin
    let wv = ensure_wave t in
    Wave.roll_back wv w.Wave.index ~time:now;
    Wave.halt wv ~time:now;
    t.outcome <- Some (Rolled_back reasons)
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start t =
  let wv = ensure_wave t in
  match Wave.next wv with
  | Some w -> submit_wave t w
  | None ->
      t.outcome <-
        (if Wave.converged wv then Some Converged
         else Some (Halted [ "terminal journal record" ]))

let launch t ~at =
  let cloud = Fleet.cloud !(t.fleet) in
  let delay = Float.max 0. (at -. Cloud.now cloud) in
  Cloud.schedule cloud ~delay (fun () ->
      if (not t.dead) && t.outcome = None then start t)

let abandon t = t.dead <- true

let resume ?journal ?check_period ~change fleet_ref () =
  let t = create ?journal ?check_period ~change fleet_ref () in
  let wv = ensure_wave t in
  (match journal with
  | Some j -> ignore (Wave.restore wv (Journal.entries j) : Wave.t)
  | None -> ());
  t

let install (scn : Scenario.t) fleet_ref =
  List.map
    (fun (ws : Scenario.wave_spec) ->
      let t =
        create ~check_period:ws.Scenario.wcheck ~change:ws.Scenario.wchange
          fleet_ref ()
      in
      launch t ~at:ws.Scenario.wstart;
      t)
    scn.Scenario.waves

(* ------------------------------------------------------------------ *)
(* Observers                                                           *)
(* ------------------------------------------------------------------ *)

let change c = c.change
let outcome t = t.outcome
let converged t = t.outcome = Some Converged
let wave_machine t = ensure_wave t

let touched_tenants t =
  match t.wave with Some w -> Wave.touched_tenants w | None -> []

let committed_tenants t =
  match t.wave with Some w -> Wave.committed_tenants w | None -> []

let mgmt_calls t = t.mgmt_calls
let gate_checks t = t.gate_checks
let submitted t = t.submitted
let rollbacks t = t.rollbacks

let rollback_latency t =
  match (t.gate_failed_at, t.rollback_done_at) with
  | Some failed, Some done_ -> Some (done_ -. failed)
  | _ -> None

let events t = List.rev t.events
