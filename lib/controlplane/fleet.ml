(** The event-driven control-plane fleet (E15) — the one control-plane
    entry point; a single-loop service is a fleet of one shard.

    [N] {!Shard}s share one simulated cloud and one metrics registry.
    A {!Router} owns tenant placement (consistent-hash ring plus
    rebalance pins); the fleet drive loop steps the shared clock and
    drains every shard round-robin after each event, so execution
    interleaves deterministically regardless of shard count.

    Drift detection is push-based: instead of polling the activity log
    per deployment (O(deployments) LookupEvents calls per period), each
    shard holds exactly {e one} multiplexed activity-log subscription.
    An appended entry fans out to every shard; the shard whose
    {!Router.partition} covers the entry's cloud id classifies it
    ({!Drift.event_of_entry}) against the owning deployment's state and
    routes the resulting event to the owner's shard — which, because
    detection partitions hash cloud ids while ownership hashes tenants,
    is usually a {e different} shard ([cross_shard_routed] counts the
    hops).  Detection latency collapses to the entry's append instant
    and no per-poll log reads are paid.

    Fleet-level concerns stay here: the shared crash gate ([Crash_after
    k] counts journaled writes across the whole fleet, so a crash lands
    on whichever shard issues the (k+1)-th write), the policy
    controller, queue-depth-driven rebalancing, crash {!resume} at
    shard granularity, the shard-count-invariant {!state_digest}, and
    the shared write pacer: one token bucket mirroring the cloud's
    write budget that every unbounded walk of every shard books from, so
    the fleet as a whole stays inside the provider's budget instead of
    bursting into it and retrying the 429s. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Drift = Cloudless_drift.Drift
module Recovery = Cloudless_deploy.Recovery
module Controller = Cloudless_policy.Controller
module Policy = Cloudless_policy.Policy
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics

(* Queue-depth gap between the deepest and shallowest shard that
   triggers a rebalance move at the next periodic check. *)
let rebalance_threshold = 4

type t = {
  cloud : Cloud.t;
  config : Shard.service_config;
  trace : Trace.t;
  registry : Metrics.t;
  router : Router.t;
  shards : Shard.t array;
  controller : Controller.t option;
  crash : Failure.crash_policy ref;
  dead : bool ref;
  mutable subs : Activity_log.subscription list;
  mutable cursor : int;  (** next log seq to consume on a resume *)
  mutable unmanaged : (string * float) list;
      (** detections with no owning deployment (newest first) *)
  mutable until : float;
}

let metrics t = t.registry
let cloud t = t.cloud
let router t = t.router
let shard_count t = Array.length t.shards
let shards t = Array.to_list t.shards
let set_crash t policy = t.crash := policy

let owner_shard t tenant = t.shards.(Router.assign t.router tenant)

(* The fleet's telemetry policy, ticked every [policy_period]: flag any
   accumulated drift. *)
let policy_src =
  {|
policy "drift_watch" {
  on   = "telemetry"
  when = obs.drift_events > 0

  action "note_drift" {
    kind    = "notify"
    message = "service observed ${obs.drift_events} drift event(s) across ${obs.tenants} tenant(s)"
  }
}
|}

let create ~cloud ?(trace = Trace.null) ~shards (config : Shard.service_config)
    =
  let registry = Metrics.create () in
  let controller =
    if config.Shard.policy_period > 0. then
      Some (Controller.of_source ~file:"<service-policy>" policy_src)
    else None
  in
  let crash = ref Failure.No_crash in
  let dead = ref false in
  let writes = ref 0 in
  (* one crash gate across the whole fleet: the service is one process
     no matter how many shards it runs *)
  let gate () =
    incr writes;
    match !crash with
    | Failure.Crash_after k when !writes > k ->
        dead := true;
        raise (Failure.Engine_crashed k)
    | _ -> ()
  in
  (* one pacer across the whole fleet, as for the gate: the provider
     budgets the service's writes, not each shard's *)
  let host =
    {
      Shard.gate;
      alive = (fun () -> not !dead);
      pacer = Cloud.write_pacer cloud;
    }
  in
  let mk sid =
    Shard.create ~sid ~cloud ~config
      ~scope:(Metrics.scoped registry (Some (Printf.sprintf "shard%d" sid)))
      ~trace ~host ()
  in
  Metrics.set registry "fleet_shards" (float_of_int shards);
  {
    cloud;
    config;
    trace;
    registry;
    router = Router.create ~shards ();
    shards = Array.init shards mk;
    controller;
    crash;
    dead;
    subs = [];
    cursor = 0;
    unmanaged = [];
    until = 0.;
  }

(* Rebalancing moves all of a tenant's deployments and pins the tenant
   in one step, so the router's owner holds every one of them. *)
let find_deployment t ~tenant ~dname =
  Shard.find_deployment (owner_shard t tenant) ~tenant ~dname

let add_deployment t ~tenant ~dname ~src =
  Shard.add_deployment (owner_shard t tenant) ~tenant ~dname ~src

let submit_request t (dep : Shard.deployment) ~src =
  Shard.submit_request (owner_shard t dep.Shard.tenant) dep ~src

let submit_rollback t (dep : Shard.deployment) ~label ~plan_of ?restore_src
    ~notify () =
  Shard.submit_rollback
    (owner_shard t dep.Shard.tenant)
    dep ~label ~plan_of ?restore_src ~notify ()

let deployments t =
  Array.to_list t.shards |> List.concat_map Shard.deployments

let managed_resource_count t =
  Array.fold_left (fun acc s -> acc + Shard.managed_resource_count s) 0 t.shards

(** (cloud_id, detected_at) across every shard plus unmanaged-entry
    detections, ordered by detection time. *)
let drift_detections t =
  let shard_dets =
    Array.to_list t.shards |> List.concat_map Shard.drift_detections
  in
  List.stable_sort
    (fun (_, a) (_, b) -> compare a b)
    (shard_dets @ List.rev t.unmanaged)

let completed_requests t =
  Array.to_list t.shards
  |> List.concat_map (fun s ->
         List.map
           (fun (rid, at) -> (Shard.sid s, rid, at))
           (Shard.completed_requests s))
  |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Event-driven drift: one multiplexed subscription per shard          *)
(* ------------------------------------------------------------------ *)

(* The owning deployment of a cloud id, fleet-wide.  O(deployments)
   state probes, paid only for non-IaC writes in this shard's
   partition. *)
let owning_deployment t cloud_id =
  let found = ref None in
  Array.iter
    (fun s ->
      if !found = None then
        List.iter
          (fun (d : Shard.deployment) ->
            if
              !found = None
              && State.find_by_cloud_id d.Shard.state cloud_id <> None
            then found := Some d)
          (Shard.deployments s))
    t.shards;
  !found

let deliver t sid (e : Activity_log.entry) =
  t.cursor <- e.Activity_log.seq + 1;
  if (not !(t.dead)) && Drift.oob_write e then
    if Router.partition t.router e.Activity_log.cloud_id = sid then begin
      match owning_deployment t e.Activity_log.cloud_id with
      | Some dep ->
          let owner = Router.assign t.router dep.Shard.tenant in
          if owner <> sid then Metrics.inc t.registry "cross_shard_routed";
          (match
             Drift.event_of_entry t.cloud ~state:dep.Shard.state e
           with
          | Some ev -> Shard.ingest_drift t.shards.(owner) dep [ ev ]
          | None -> ())
      | None ->
          (* no deployment tracks it: an unmanaged create (or noise
             about an already-forgotten id).  Record once, fleet-wide —
             the polling engine flags these once per deployment. *)
          (match e.Activity_log.op with
          | Activity_log.Log_create ->
              Metrics.inc t.registry "drift_events_unmanaged";
              t.unmanaged <-
                (e.Activity_log.cloud_id, e.Activity_log.time) :: t.unmanaged
          | _ -> ())
    end

let subscribe_shards t ~from =
  t.subs <-
    Array.to_list
      (Array.map
         (fun s ->
           let sid = Shard.sid s in
           Activity_log.subscribe (Cloud.log t.cloud) ~from (deliver t sid))
         t.shards)

let unsubscribe_shards t =
  let log = Cloud.log t.cloud in
  List.iter (Activity_log.unsubscribe log) t.subs;
  t.subs <- []

(* ------------------------------------------------------------------ *)
(* Rebalancing                                                         *)
(* ------------------------------------------------------------------ *)

(* One periodic check: if the deepest shard's queue exceeds the
   shallowest's by [rebalance_threshold], move the first quiescent
   tenant (no pending work on the source shard) over and pin it.  At
   most one tenant per tick keeps the churn observable and the
   decision trivially deterministic. *)
let rebalance_tick t =
  let n = Array.length t.shards in
  if n > 1 then begin
    let deepest = ref 0 and shallowest = ref 0 in
    Array.iteri
      (fun i s ->
        let d = Shard.queue_depth s in
        if d > Shard.queue_depth t.shards.(!deepest) then deepest := i;
        if d < Shard.queue_depth t.shards.(!shallowest) then shallowest := i)
      t.shards;
    let src = t.shards.(!deepest) and dst = t.shards.(!shallowest) in
    let gap = Shard.queue_depth src - Shard.queue_depth dst in
    Metrics.set t.registry "rebalance_gap" (float_of_int gap);
    if gap >= rebalance_threshold then begin
      let movable =
        List.filter
          (fun (d : Shard.deployment) ->
            Shard.tenant_pending src d.Shard.tenant = 0)
          (Shard.deployments src)
      in
      match movable with
      | [] -> ()
      | d :: _ ->
          let tenant = d.Shard.tenant in
          let moving =
            List.filter
              (fun (d : Shard.deployment) -> d.Shard.tenant = tenant)
              (Shard.deployments src)
          in
          List.iter
            (fun dep ->
              Shard.remove_deployment src dep;
              Shard.adopt_deployment dst dep)
            moving;
          Router.pin t.router tenant (Shard.sid dst);
          Metrics.inc t.registry "rebalance_moves";
          Trace.emit_span t.trace ~sim_start:(Cloud.now t.cloud)
            ~meta:
              [
                ("tenant", tenant);
                ("from", string_of_int (Shard.sid src));
                ("to", string_of_int (Shard.sid dst));
              ]
            ~counters:[ ("gap", gap); ("deployments", List.length moving) ]
            "rebalance"
    end
  end

let rec arm_rebalance_timer t =
  Cloud.schedule t.cloud ~delay:t.config.Shard.rebalance_period (fun () ->
      if not !(t.dead) then begin
        rebalance_tick t;
        if Cloud.now t.cloud +. t.config.Shard.rebalance_period <= t.until then
          arm_rebalance_timer t
      end)

(* ------------------------------------------------------------------ *)
(* Policy ticks (fleet-level)                                          *)
(* ------------------------------------------------------------------ *)

let policy_tick t c at =
  Metrics.inc t.registry "policy_ticks";
  let queue_depth =
    Array.fold_left (fun acc s -> acc + Shard.queue_depth s) 0 t.shards
  in
  let obs =
    Controller.standard_obs
      ~extra:
        [
          ("tenants", Value.Vint (List.length (deployments t)));
          ("managed_resources", Value.Vint (managed_resource_count t));
          ( "drift_events",
            Value.Vint (Metrics.counter t.registry "drift_events") );
          ("queue_depth", Value.Vint queue_depth);
          ("shards", Value.Vint (Array.length t.shards));
        ]
      ()
  in
  let r = Controller.tick c ~phase:Policy.On_telemetry ~obs () in
  Metrics.inc t.registry ~by:(List.length r.Controller.decisions)
    "policy_decisions";
  Trace.emit_span t.trace ~sim_start:at
    ~counters:[ ("decisions", List.length r.Controller.decisions) ]
    "policy_tick"

let rec arm_policy_timer t c =
  Cloud.schedule t.cloud ~delay:t.config.Shard.policy_period (fun () ->
      if not !(t.dead) then begin
        policy_tick t c (Cloud.now t.cloud);
        if Cloud.now t.cloud +. t.config.Shard.policy_period <= t.until then
          arm_policy_timer t c
      end)

(* ------------------------------------------------------------------ *)
(* The drive loop                                                      *)
(* ------------------------------------------------------------------ *)

(** Drive the fleet until the simulated event queue drains.  Arms every
    shard's scan timers ([Baseline]) or installs the per-shard log
    subscriptions ([Fleet]), arms the policy tick and (with more than
    one shard) the rebalance check, and steps the shared clock,
    draining each shard round-robin after every event.  Raises
    {!Failure.Engine_crashed} when the crash gate trips.  Call once per
    fleet instance ({!resume} builds the successor). *)
let run t ~until =
  t.until <- until;
  Array.iter (fun s -> Shard.arm_timers s ~until) t.shards;
  if t.config.Shard.preset = Shard.Fleet then subscribe_shards t ~from:t.cursor;
  Option.iter (arm_policy_timer t) t.controller;
  if t.config.Shard.rebalance_period > 0. && Array.length t.shards > 1 then
    arm_rebalance_timer t;
  let drain_all () = Array.iter Shard.drain t.shards in
  drain_all ();
  let rec drive () =
    if (not !(t.dead)) && Cloud.step t.cloud then begin
      drain_all ();
      drive ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* a dead fleet must not keep classifying entries appended by its
         successor *)
      if !(t.dead) then unsubscribe_shards t)
    drive;
  Array.iter Shard.finish_stats t.shards;
  Metrics.set t.registry "log_deliveries"
    (float_of_int (Activity_log.deliveries (Cloud.log t.cloud)))

(* ------------------------------------------------------------------ *)
(* Crash recovery and audits                                           *)
(* ------------------------------------------------------------------ *)

(** Build the dead fleet's successor on the same cloud, at the same
    shard count.  Per deployment — regardless of which shard owned it —
    replay its journal over the last persisted state and adopt
    in-flight creates from the activity log ({!Recovery.resume_state};
    per-deployment engine names keep adoption tenant-safe), register it
    on the successor's ring (fresh, unpinned — rebalance pins are
    process-local ephemera), and enqueue a converge request.  The
    fleet's subscription cursor carries over, so entries appended
    between the last delivery and the crash replay into the new
    subscriptions instead of being lost.  Returns the new fleet and the
    per-deployment recovery reports. *)
let resume (old : t) =
  unsubscribe_shards old;
  let t =
    create ~cloud:old.cloud ~trace:old.trace
      ~shards:(Array.length old.shards) old.config
  in
  t.cursor <- old.cursor;
  let reports =
    List.map
      (fun (d : Shard.deployment) ->
        let entries = Journal.entries d.Shard.journal in
        let state, report =
          Recovery.resume_state old.cloud ~engine:d.Shard.engine
            ~state:d.Shard.persisted ~entries
        in
        let dep =
          add_deployment t ~tenant:d.Shard.tenant ~dname:d.Shard.dname
            ~src:d.Shard.config_src
        in
        dep.Shard.state <- state;
        dep.Shard.persisted <- state;
        (* keep journaling into the same (already-replayed) journal:
           re-appending the entries carries {!Journal.last_op} over,
           so op ids continue past every id the crashed fleet issued,
           and replay stays idempotent *)
        List.iter (Journal.append dep.Shard.journal) entries;
        ignore (submit_request t dep ~src:d.Shard.config_src);
        ((d.Shard.tenant, d.Shard.dname), report))
      (deployments old)
  in
  (t, reports)

(** IaC-engine-created resources alive in the cloud that no
    deployment's state tracks — the cross-tenant orphan audit. *)
let orphans t =
  Recovery.orphans t.cloud
    ~states:
      (List.map (fun (d : Shard.deployment) -> d.Shard.state) (deployments t))

(* ------------------------------------------------------------------ *)
(* Shard-count-invariant state digest                                  *)
(* ------------------------------------------------------------------ *)

(** MD5 over a canonical rendering of every deployment's state.  Cloud
    ids are minted by a global counter whose order depends on execution
    interleaving — and therefore on the shard count — so the rendering
    replaces every known cloud id with the address of the resource it
    names ("@tenant0/d0/aws_instance.web[3]") and drops the id-derived
    [arn]/[id] attributes.  Two fleets that converged every tenant to
    the same logical world digest identically at any shard count.

    One pass writes the rendering straight into a buffer: scalars as
    {!Value.show} prints them, lists and maps without intermediate
    strings, and each resource's address text rendered once, for both
    the cloud-id table and its row's sort key. *)
let state_digest t =
  let deps =
    List.sort
      (fun (a : Shard.deployment) (b : Shard.deployment) ->
        compare (a.Shard.tenant, a.Shard.dname) (b.Shard.tenant, b.Shard.dname))
      (deployments t)
  in
  (* cloud id -> (owning deployment, address text) across the fleet,
     filled in state order; then each deployment's rows sort by that
     same text *)
  let owner_of = Hashtbl.create 256 in
  let rows =
    List.map
      (fun (d : Shard.deployment) ->
        let rs =
          Array.of_list
            (List.map
               (fun (r : State.resource_state) ->
                 let a = Hcl.Addr.to_string r.State.addr in
                 Hashtbl.replace owner_of r.State.cloud_id (d, a);
                 (a, r))
               (State.resources d.Shard.state))
        in
        Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) rs;
        (d, rs))
      deps
  in
  let buf = Buffer.create 4096 in
  let add_deployment (d : Shard.deployment) =
    Buffer.add_string buf d.Shard.tenant;
    Buffer.add_char buf '/';
    Buffer.add_string buf d.Shard.dname
  in
  (* recursive: reference attributes carry cloud ids inside lists
     ([vpc_security_group_ids = ["group-…"]]) and maps too *)
  let rec add_value v =
    match v with
    | Value.Vstring s -> (
        match Hashtbl.find_opt owner_of s with
        | Some (d, a) ->
            Buffer.add_char buf '@';
            add_deployment d;
            Buffer.add_char buf '/';
            Buffer.add_string buf a
        | None ->
            Buffer.add_char buf '"';
            Buffer.add_string buf (Value.escape_string s);
            Buffer.add_char buf '"')
    | Value.Vint n -> Buffer.add_string buf (string_of_int n)
    | Value.Vbool b -> Buffer.add_string buf (string_of_bool b)
    | Value.Vnull -> Buffer.add_string buf "null"
    | Value.Vlist vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            add_value v)
          vs;
        Buffer.add_char buf ']'
    | Value.Vmap m ->
        Buffer.add_char buf '{';
        let first = ref true in
        Smap.iter
          (fun k v ->
            if !first then first := false else Buffer.add_char buf ',';
            Buffer.add_string buf k;
            Buffer.add_char buf ':';
            add_value v)
          m;
        Buffer.add_char buf '}'
    | Value.Vfloat _ | Value.Vunknown _ -> Buffer.add_string buf (Value.show v)
  in
  List.iter
    (fun (d, rs) ->
      add_deployment d;
      Buffer.add_char buf '\n';
      Array.iter
        (fun (a, (r : State.resource_state)) ->
          Buffer.add_string buf "  ";
          Buffer.add_string buf a;
          Buffer.add_char buf '|';
          Buffer.add_string buf r.State.rtype;
          Smap.iter
            (fun k v ->
              if k <> "arn" && k <> "id" then begin
                Buffer.add_char buf '|';
                Buffer.add_string buf k;
                Buffer.add_char buf '=';
                add_value v
              end)
            r.State.attrs;
          Buffer.add_char buf '\n')
        rs)
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))
