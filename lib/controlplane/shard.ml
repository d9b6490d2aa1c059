(** One control-plane shard: the deterministic event loop that owns a
    subset of tenants (E15).

    This module is the execution engine: the prioritized work queue,
    lock-managed admission, journaled request/reconcile/scan execution,
    and drift intake.  What it deliberately does {e not} own is fleet
    policy — crash injection, liveness, policy-controller ticks and
    tenant placement belong to the {!Fleet} that hosts [N] shards
    (one for a single-loop service) behind a {!Router}, feeding each
    one from a multiplexed activity-log subscription.

    The host's crash gate and liveness flag are injected as a {!host}
    record of callbacks, so a shard never reaches outside its own
    tenant subset.  All metrics flow through a {!Metrics.scope} labeled
    ["shard<i>"]: each signal is recorded under its bare name and again
    as ["name.shard<i>"].

    Admission backpressure (§3.6): when [max_queue_depth] is positive
    and the shard's queue (heap + lock waiters) is at or above the
    bound, new tenant requests are either deferred (re-submitted after
    [defer_delay] simulated seconds, preserving the original submit
    time so the latency histograms show the cost) or rejected outright,
    per the configured {!admission} policy.  Internal work — drift
    reconciles, scan sweeps, rollbacks — always bypasses the bound:
    repair must not be starved by the very backlog it repairs.

    Degraded mode (E17): with a circuit {!Cloudless_deploy.Breaker}
    configured, work whose apply fast-fails against an Open (kind,
    rtype) cell is {e parked} rather than failed — partial progress is
    persisted, locks release so unaffected tenants keep flowing, the
    original submit time is preserved (latency histograms carry the
    full episode cost), and the unit is re-admitted around the
    breaker's next half-open probe, re-reading the deployment's
    {e latest} config revision so a parked request can never roll a
    tenant back to a stale wave.  While any cell is Open the shard
    also sheds baseline scan sweeps: a sweep would burn O(state) reads
    only to fast-fail its repair. *)

module Hcl = Cloudless_hcl
module Addr = Hcl.Addr
module Value = Hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Failure = Cloudless_sim.Failure
module Pq = Cloudless_sim.Pqueue
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Dag = Cloudless_graph.Dag
module Lock_manager = Cloudless_lock.Lock_manager
module Drift = Cloudless_drift.Drift
module Breaker = Cloudless_deploy.Breaker
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics

type drift_mode =
  | Scan  (** periodic full read-every-resource sweep (baseline) *)
  | Subscribe
      (** push: the host routes activity-log entries in via
          {!ingest_drift}; the shard arms no drift timer at all *)

type admission = Defer | Reject

type service_config = {
  sname : string;
  granularity : Lock_manager.granularity;
  drift_mode : drift_mode;
  drift_period : float;  (** scan sweep period, sim s *)
  scoped_reconcile : bool;  (** restrict reconcile applies to impact scope *)
  refresh_before_apply : bool;  (** Terraform's full refresh on every apply *)
  parallelism : int option;  (** per-work-unit in-flight op cap *)
  policy_period : float;  (** 0 = no policy controller *)
  policy_src : string option;
  max_queue_depth : int;  (** admission bound; 0 = unbounded *)
  admission : admission;  (** what to do with requests over the bound *)
  defer_delay : float;  (** re-admission delay for deferred requests *)
  rebalance_period : float;  (** fleet rebalance check period; 0 = off *)
  breaker : Breaker.config option;
      (** circuit-breaker cells per (API kind, rtype); [None] = off *)
}

let baseline_service =
  {
    sname = "baseline";
    granularity = Lock_manager.Global;
    drift_mode = Scan;
    drift_period = 60.;
    scoped_reconcile = false;
    refresh_before_apply = true;
    parallelism = Some 10;
    policy_period = 0.;
    policy_src = None;
    max_queue_depth = 0;
    admission = Defer;
    defer_delay = 5.;
    rebalance_period = 0.;
    breaker = None;
  }

(** The event-driven fleet preset: per-resource locks, push-based drift
    via log subscriptions, scoped reconciles, no refresh before apply,
    periodic rebalancing (armed only with more than one shard). *)
let fleet_service =
  {
    sname = "fleet";
    granularity = Lock_manager.Per_resource;
    drift_mode = Subscribe;
    drift_period = 60.;
    scoped_reconcile = true;
    refresh_before_apply = false;
    parallelism = None;
    policy_period = 0.;
    policy_src = None;
    max_queue_depth = 0;
    admission = Defer;
    defer_delay = 5.;
    rebalance_period = 120.;
    breaker = None;
  }

type deployment = {
  tenant : string;
  dname : string;
  engine : string;
      (** activity-log actor, unique per deployment ("cp/<tenant>/<name>")
          so crash-recovery orphan adoption cannot claim across tenants *)
  root_key : Addr.t;
      (** every unit of work on this deployment locks this key: work on
          one deployment serializes, disjoint deployments don't conflict *)
  mutable config_src : string;  (** desired configuration (latest revision) *)
  mutable state : State.t;  (** live in-memory state *)
  mutable persisted : State.t;
      (** state as of the last *completed* unit of work — what survives
          a crash (end-of-work persistence); resume replays the journal
          over this *)
  journal : Journal.t;  (** one write-ahead journal across all applies *)
}

type work =
  | Request of { dep : deployment; rid : int; src : string; submitted : float }
  | Reconcile of {
      dep : deployment;
      seeds : Addr.t list;  (** drifted addresses *)
      detected : float;
    }
  | Scan_sweep of { dep : deployment; swept : float }
  | Rollback_op of {
      dep : deployment;
      label : string;  (** e.g. "wave:<change>:<k>" for trace joins *)
      plan_of : unit -> Plan.t;
          (** inverse plan, computed at grant time — under the
              deployment lock, against the *latest* state — so a
              rollback admitted behind in-flight work still reverses
              exactly what that work left behind *)
      restore_src : string option;
          (** pre-wave config revision to restore, so later reconciles
              do not re-apply the rolled-back change *)
      submitted : float;
      notify : float -> unit;  (** completion callback (sim time) *)
    }

type host = {
  gate : unit -> unit;
      (** journaled-write crash gate, shared across the whole service *)
  alive : unit -> bool;  (** service liveness; a dead host stops draining *)
}

type t = {
  cloud : Cloud.t;
  sid : int;  (** shard index within the fleet *)
  config : service_config;
  host : host;
  lock : Lock_manager.t;
  queue : (int, work) Pq.t;  (** prio = work class; FIFO within class *)
  scope : Metrics.scope;
  trace : Trace.t;
  mutable deployments : deployment list;  (** registration order *)
  mutable next_work : int;
  mutable next_rid : int;
  mutable completed : (int * float) list;  (** requests, completion order *)
  mutable detections : (string * float) list;
      (** (cloud_id, detected_at), first detection per drift event *)
  pending : (string, int) Hashtbl.t;
      (** tenant -> queued+running work units; a tenant is movable in a
          rebalance only when this is 0 *)
  mutable until : float;
  mutable breaker : Breaker.t option;  (** per-shard circuit breakers *)
  mutable degraded_since : float option;
      (** open while ≥1 breaker cell is Open; closes into the
          ["degraded_time"] histogram *)
  mutable parked : int;  (** work units waiting out an open breaker *)
}

(* Degraded-mode bookkeeping, hung off every breaker cell transition:
   state-change counters, the open-cell gauge, and the time-in-degraded
   histogram (a degraded window opens when the first cell trips and
   closes when the last one does). *)
let on_breaker_transition t ~after ~now =
  (match after with
  | Breaker.Open -> Metrics.scope_inc t.scope "breaker_opened"
  | Breaker.Half_open -> Metrics.scope_inc t.scope "breaker_half_open"
  | Breaker.Closed -> Metrics.scope_inc t.scope "breaker_closed");
  match t.breaker with
  | None -> ()
  | Some b -> (
      let cells = Breaker.open_cells b in
      Metrics.scope_set t.scope "breaker_open_cells" (float_of_int cells);
      match (t.degraded_since, cells) with
      | None, n when n > 0 ->
          t.degraded_since <- Some now;
          Metrics.scope_inc t.scope "degraded_entries"
      | Some s, 0 ->
          Metrics.scope_observe t.scope "degraded_time" (now -. s);
          t.degraded_since <- None
      | _ -> ())

let create ~sid ~cloud ~config ~scope ~trace ~host () =
  let t =
    {
      cloud;
      sid;
      config;
      host;
      lock = Lock_manager.create config.granularity;
      queue = Pq.create ~initial_capacity:64 Pq.Min_first;
      scope;
      trace;
      deployments = [];
      next_work = 0;
      next_rid = 0;
      completed = [];
      detections = [];
      pending = Hashtbl.create 16;
      until = 0.;
      breaker = None;
      degraded_since = None;
      parked = 0;
    }
  in
  (match config.breaker with
  | Some bcfg ->
      t.breaker <-
        Some
          (Breaker.create ~config:bcfg
             ~on_transition:(fun ~kind:_ ~rtype:_ ~before:_ ~after ~now ->
               on_breaker_transition t ~after ~now)
             ())
  | None -> ());
  t

let sid t = t.sid
let lock t = t.lock
let breaker t = t.breaker
let parked_work t = t.parked
let metrics t = Metrics.scope_metrics t.scope
let deployments t = List.rev t.deployments
let completed_requests t = List.rev t.completed
let drift_detections t = List.rev t.detections

let find_deployment t ~tenant ~dname =
  List.find_opt
    (fun d -> d.tenant = tenant && d.dname = dname)
    t.deployments

let make_deployment ~tenant ~dname ~src =
  {
    tenant;
    dname;
    engine = Printf.sprintf "cp/%s/%s" tenant dname;
    root_key =
      Addr.make ~module_path:[ tenant; dname ] ~rtype:"deployment" ~rname:dname
        ();
    config_src = src;
    state = State.empty;
    persisted = State.empty;
    journal = Journal.create ();
  }

let add_deployment t ~tenant ~dname ~src =
  let dep = make_deployment ~tenant ~dname ~src in
  t.deployments <- dep :: t.deployments;
  dep

(* Rebalance support: a deployment record is shard-agnostic (engine
   name and journal travel with it), so a move is just
   list surgery on both sides.  The fleet only moves tenants with no
   pending work, so no lock state needs to transfer. *)
let adopt_deployment t dep = t.deployments <- dep :: t.deployments

let remove_deployment t dep =
  t.deployments <- List.filter (fun d -> d != dep) t.deployments

let tenant_pending t tenant =
  match Hashtbl.find_opt t.pending tenant with Some n -> n | None -> 0

let pending_incr t tenant =
  Hashtbl.replace t.pending tenant (tenant_pending t tenant + 1)

let pending_decr t tenant =
  Hashtbl.replace t.pending tenant (max 0 (tenant_pending t tenant - 1))

(** Total resources across this shard's deployments. *)
let managed_resource_count t =
  List.fold_left (fun acc d -> acc + State.size d.state) 0 t.deployments

(* ------------------------------------------------------------------ *)
(* Config expansion (shared by requests and reconciles)                *)
(* ------------------------------------------------------------------ *)

let data_resolver ~rtype ~name:_ ~args:_ =
  match rtype with
  | "aws_region" -> Some (Smap.singleton "name" (Value.Vstring "us-east-1"))
  | _ -> None

let expand ~state src =
  let cfg = Hcl.Config.parse ~file:"<service>" src in
  let env =
    {
      Hcl.Eval.default_env with
      Hcl.Eval.data_resolver;
      state_lookup = (fun addr -> State.lookup state addr);
    }
  in
  (Hcl.Eval.expand ~env cfg).Hcl.Eval.instances

let applier_config t dep =
  {
    Applier.engine = dep.engine;
    parallelism = t.config.parallelism;
    max_retries = 12;
    backoff_base = 2.;
    (* jitter only rides with the breaker so pre-E17 presets stay
       byte-identical to their committed metrics snapshots *)
    jitter = t.config.breaker <> None;
  }

let count_api t dep ~read n =
  Metrics.scope_inc t.scope ~by:n "api_calls";
  Metrics.inc (metrics t) ~by:n ("api_calls." ^ dep.tenant);
  if read then Metrics.scope_inc t.scope ~by:n "api_reads"
  else Metrics.scope_inc t.scope ~by:n "api_writes"

(* ------------------------------------------------------------------ *)
(* The work queue                                                      *)
(* ------------------------------------------------------------------ *)

(* Priority classes; FIFO within a class via the heap's insertion
   sequence.  Tenant-facing requests outrank background repair. *)
let work_class = function
  | Request _ | Rollback_op _ -> 0.
      (* a rollback is the urgent tail of a tenant-facing change:
         deprioritizing it would leave the bad revision live longer *)
  | Reconcile _ | Scan_sweep _ -> 1.

let owner_of dep ~wid = Printf.sprintf "%s#%d" dep.engine wid

(** Queued plus lock-blocked work — the admission signal the
    backpressure bound and the fleet rebalancer both read. *)
let queue_depth t = Pq.length t.queue + Lock_manager.queue_length t.lock

(* Forward declaration: executing work needs [drain] (to hand follow-up
   work to the lock manager) and vice versa. *)
let rec drain t =
  if t.host.alive () then begin
    Metrics.scope_set t.scope "queue_depth" (float_of_int (queue_depth t));
    match Pq.pop t.queue with
    | None -> ()
    | Some (_, wid, work) ->
        admit t wid work;
        drain t
    end

(* Hand one unit of work to the lock manager.  The grant callback runs
   the work; conflicting work queues FIFO inside the manager, which is
   exactly the serialization order the QCheck property pins down. *)
and admit t wid work =
  match work with
  | Request { dep; rid; src; submitted } ->
      Lock_manager.acquire t.lock ~owner:(owner_of dep ~wid)
        ~keys:[ dep.root_key ] (fun () ->
          if t.host.alive () then exec_request t dep ~wid ~rid ~src ~submitted)
  | Reconcile { dep; seeds; detected } ->
      Lock_manager.acquire t.lock ~owner:(owner_of dep ~wid)
        ~keys:[ dep.root_key ] (fun () ->
          if t.host.alive () then exec_reconcile t dep ~wid ~seeds ~detected)
  | Rollback_op { dep; label; plan_of; restore_src; submitted; notify } ->
      Lock_manager.acquire t.lock ~owner:(owner_of dep ~wid)
        ~keys:[ dep.root_key ] (fun () ->
          if t.host.alive () then
            exec_rollback t dep ~wid ~label ~plan_of ~restore_src ~submitted
              ~notify)
  | Scan_sweep { dep; swept } -> (
      match t.breaker with
      | Some b when Breaker.any_open b ->
          (* degraded mode sheds baseline sweeps: the sweep would burn
             O(state) management reads only to fast-fail its repair;
             the next armed sweep runs once the breaker closes *)
          Metrics.scope_inc t.scope "scans_shed";
          pending_decr t dep.tenant
      | _ ->
          Lock_manager.acquire t.lock ~owner:(owner_of dep ~wid)
            ~keys:[ dep.root_key ] (fun () ->
              if t.host.alive () then exec_scan t dep ~wid ~swept))

and enqueue t work =
  let wid = t.next_work in
  t.next_work <- wid + 1;
  (match work with
  | Request { dep; _ }
  | Reconcile { dep; _ }
  | Scan_sweep { dep; _ }
  | Rollback_op { dep; _ } ->
      pending_incr t dep.tenant);
  Pq.push t.queue ~prio:(work_class work) ~key:wid work;
  drain t

(* Complete a unit of work: persist the deployment's state (end-of-work
   persistence — the crash window the journal covers), release the
   locks, and emit the span. *)
and finish_work t dep ~wid ~span ~sim_start ~meta ~counters =
  dep.persisted <- dep.state;
  pending_decr t dep.tenant;
  Lock_manager.release t.lock ~owner:(owner_of dep ~wid);
  Trace.emit_span t.trace ~meta ~counters ~sim_start span;
  drain t

(* Park one unit of work that fast-failed against an open breaker:
   persist partial progress, release the locks so unaffected tenants
   keep flowing, and schedule re-admission just after the breaker's
   next half-open probe becomes available.  The unit stays logically
   pending (the tenant is not movable, and the caller keeps the
   original submit/detected instant so latency accounting spans the
   whole episode).  [rebuild] re-creates the work at re-admission
   time — a request re-reads [dep.config_src] there, so a parked
   request converges to the latest revision, never a stale one. *)
and park_work t dep ~wid ~rebuild =
  dep.persisted <- dep.state;
  Lock_manager.release t.lock ~owner:(owner_of dep ~wid);
  t.parked <- t.parked + 1;
  Metrics.scope_set t.scope "parked_work" (float_of_int t.parked);
  let now = Cloud.now t.cloud in
  let delay =
    match t.breaker with
    | Some b -> (
        match Breaker.next_probe_at b with
        | Some at -> Float.max t.config.defer_delay (at -. now +. 0.5)
        | None ->
            (* cell already probing or closed again: plain defer *)
            t.config.defer_delay)
    | None -> t.config.defer_delay
  in
  Cloud.schedule t.cloud ~delay (fun () ->
      if t.host.alive () then begin
        t.parked <- t.parked - 1;
        Metrics.scope_set t.scope "parked_work" (float_of_int t.parked);
        (* enqueue without pending_incr: the unit never stopped being
           pending while parked *)
        let work = rebuild () in
        let wid = t.next_work in
        t.next_work <- wid + 1;
        Pq.push t.queue ~prio:(work_class work) ~key:wid work;
        drain t
      end);
  drain t

(* Did the apply leave changes fast-failed by an open breaker cell? *)
and breaker_blocked t (o : Applier.outcome) =
  t.breaker <> None
  && List.exists
       (fun (_, reason) -> Breaker.is_open_reason reason)
       o.Applier.failed

(* Catch per-work configuration/planning errors without killing the
   service; a crash injection must still propagate. *)
and protected t dep ~wid (f : unit -> unit) =
  try f () with
  | Failure.Engine_crashed _ as e -> raise e
  | e ->
      Metrics.scope_inc t.scope "work_failures";
      Trace.meta t.trace "work_error" (Printexc.to_string e);
      dep.state <- dep.persisted;
      pending_decr t dep.tenant;
      Lock_manager.release t.lock ~owner:(owner_of dep ~wid);
      drain t

(* --- tenant apply request ------------------------------------------ *)

and exec_request t dep ~wid ~rid ~src ~submitted =
  protected t dep ~wid @@ fun () ->
  let granted = Cloud.now t.cloud in
  Metrics.scope_observe t.scope "request_queue_wait" (granted -. submitted);
  dep.config_src <- src;
  let continue_with state0 reads =
    let instances = expand ~state:state0 src in
    let plan = Plan.make ~state:state0 instances in
    Applier.apply t.cloud ~config:(applier_config t dep) ~state:state0 ~plan
      ~journal:dep.journal ?breaker:t.breaker ~gate:t.host.gate
      ~alive:t.host.alive
      ~count_api:(count_api t dep ~read:false)
      ~on_done:(fun (o : Applier.outcome) ->
        dep.state <- o.Applier.astate;
        if breaker_blocked t o then begin
          Metrics.scope_inc t.scope "requests_parked";
          Metrics.inc (metrics t) ("requests_parked." ^ dep.tenant);
          park_work t dep ~wid ~rebuild:(fun () ->
              Request { dep; rid; src = dep.config_src; submitted })
        end
        else begin
        let now = Cloud.now t.cloud in
        Metrics.scope_inc t.scope "requests_done";
        Metrics.scope_observe t.scope "request_latency" (now -. submitted);
        Metrics.observe (metrics t)
          ("request_latency." ^ dep.tenant)
          (now -. submitted);
        if o.Applier.failed <> [] then
          Metrics.scope_inc t.scope "work_failures";
        t.completed <- (rid, now) :: t.completed;
        finish_work t dep ~wid ~span:"request" ~sim_start:submitted
          ~meta:
            [
              ("tenant", dep.tenant);
              ("deployment", dep.dname);
              ("rid", string_of_int rid);
            ]
          ~counters:
            [
              ("applied", List.length o.Applier.applied);
              ("failed", List.length o.Applier.failed);
              ("writes", o.Applier.writes);
              ("refresh_reads", reads);
            ]
        end)
      ()
  in
  if t.config.refresh_before_apply && State.size dep.state > 0 then
    Applier.refresh t.cloud ~engine:dep.engine ~state:dep.state
      ~alive:t.host.alive
      ~count_api:(count_api t dep ~read:true)
      ~on_done:(fun (r : Applier.refresh_outcome) ->
        protected t dep ~wid @@ fun () ->
        (* rows the refresh proved gone are dropped so the re-plan
           recreates them *)
        let state0 =
          List.fold_left State.remove r.Applier.rstate r.Applier.missing
        in
        dep.state <- state0;
        continue_with state0 r.Applier.reads)
      ()
  else continue_with dep.state 0

(* --- wave rollback (E18) ------------------------------------------- *)

(* Execute a wave-scoped inverse plan.  The plan is computed here, at
   grant time under the deployment lock, so it reverses the latest
   state even when the rollback queued behind in-flight work.  The
   config revision is restored *before* the apply: a crash between the
   two leaves the restored src with an incomplete rollback, which the
   ordinary journal-replay resume then converges — the same idempotent
   window every request has. *)
and exec_rollback t dep ~wid ~label ~plan_of ~restore_src ~submitted ~notify =
  protected t dep ~wid @@ fun () ->
  (match restore_src with Some src -> dep.config_src <- src | None -> ());
  let plan = plan_of () in
  Applier.apply t.cloud ~config:(applier_config t dep) ~state:dep.state ~plan
    ~journal:dep.journal ?breaker:t.breaker ~gate:t.host.gate
    ~alive:t.host.alive
    ~count_api:(count_api t dep ~read:false)
    ~on_done:(fun (o : Applier.outcome) ->
      dep.state <- o.Applier.astate;
      if breaker_blocked t o then begin
        Metrics.scope_inc t.scope "rollbacks_parked";
        park_work t dep ~wid ~rebuild:(fun () ->
            Rollback_op { dep; label; plan_of; restore_src; submitted; notify })
      end
      else begin
        let now = Cloud.now t.cloud in
        Metrics.scope_inc t.scope "rollbacks_done";
        Metrics.scope_observe t.scope "rollback_latency" (now -. submitted);
        if o.Applier.failed <> [] then
          Metrics.scope_inc t.scope "work_failures";
        notify now;
        finish_work t dep ~wid ~span:"rollback" ~sim_start:submitted
          ~meta:
            [
              ("tenant", dep.tenant);
              ("deployment", dep.dname);
              ("label", label);
            ]
          ~counters:
            [
              ("applied", List.length o.Applier.applied);
              ("failed", List.length o.Applier.failed);
              ("writes", o.Applier.writes);
            ]
      end)
    ()

(* --- drift intake (push subscriptions) ------------------------------ *)

(** Record freshly classified drift events against [dep] and enqueue
    the scoped repair; the fleet's subscription path delivers per
    entry. *)
and ingest_drift t dep (events : Drift.event list) =
  if events <> [] then begin
    Metrics.scope_inc t.scope ~by:(List.length events) "drift_events";
    let seeds =
      List.filter_map (fun (e : Drift.event) -> e.Drift.addr) events
    in
    List.iter
      (fun (e : Drift.event) ->
        t.detections <- (e.Drift.cloud_id, e.Drift.detected_at) :: t.detections;
        match e.Drift.occurred_at with
        | Some at ->
            Metrics.scope_observe t.scope "drift_detection_latency"
              (e.Drift.detected_at -. at)
        | None -> ())
      events;
    if seeds <> [] then
      enqueue t (Reconcile { dep; seeds; detected = Cloud.now t.cloud })
  end

(* --- drift: scoped reconcile apply --------------------------------- *)

and exec_reconcile t dep ~wid ~seeds ~detected =
  protected t dep ~wid @@ fun () ->
  let instances = expand ~state:dep.state dep.config_src in
  let scope =
    if t.config.scoped_reconcile then
      Some (Plan.impact_scope ~graph:(Dag.of_instances instances) ~edited:seeds)
    else None
  in
  let finish_reconcile (o : Applier.outcome) reads =
    dep.state <- o.Applier.astate;
    if breaker_blocked t o then begin
      Metrics.scope_inc t.scope "reconciles_parked";
      park_work t dep ~wid ~rebuild:(fun () ->
          Reconcile { dep; seeds; detected })
    end
    else begin
    Metrics.scope_inc t.scope "reconciles";
    Metrics.scope_observe t.scope "reconcile_latency"
      (Cloud.now t.cloud -. detected);
    finish_work t dep ~wid ~span:"reconcile" ~sim_start:detected
      ~meta:
        [
          ("tenant", dep.tenant);
          ("deployment", dep.dname);
          ( "scope",
            match scope with
            | Some s -> string_of_int (Addr.Set.cardinal s)
            | None -> "full" );
        ]
      ~counters:
        [
          ("applied", List.length o.Applier.applied);
          ("writes", o.Applier.writes);
          ("refresh_reads", reads);
          ("seeds", List.length seeds);
        ]
    end
  in
  Applier.refresh t.cloud ~engine:dep.engine ~state:dep.state ?addrs:scope
    ~alive:t.host.alive
    ~count_api:(count_api t dep ~read:true)
    ~on_done:(fun (r : Applier.refresh_outcome) ->
      protected t dep ~wid @@ fun () ->
      let state0 =
        List.fold_left State.remove r.Applier.rstate r.Applier.missing
      in
      dep.state <- state0;
      let instances = expand ~state:state0 dep.config_src in
      let plan = Plan.make ~state:state0 instances in
      let plan =
        match scope with Some s -> Plan.restrict plan s | None -> plan
      in
      Applier.apply t.cloud ~config:(applier_config t dep) ~state:state0 ~plan
        ~journal:dep.journal ?breaker:t.breaker ~gate:t.host.gate
      ~alive:t.host.alive
        ~count_api:(count_api t dep ~read:false)
        ~on_done:(fun o -> finish_reconcile o r.Applier.reads)
        ())
    ()

(* --- drift: scan sweep (baseline) ---------------------------------- *)

and exec_scan t dep ~wid ~swept =
  protected t dep ~wid @@ fun () ->
  Applier.scan t.cloud ~engine:dep.engine ~state:dep.state ~alive:t.host.alive
    ~count_api:(count_api t dep ~read:true)
    ~on_done:(fun (events, reads) ->
      protected t dep ~wid @@ fun () ->
      Metrics.scope_inc t.scope ~by:reads "scan_reads";
      if events = [] then
        finish_work t dep ~wid ~span:"scan" ~sim_start:swept
          ~meta:[ ("tenant", dep.tenant); ("deployment", dep.dname) ]
          ~counters:[ ("scan_reads", reads); ("drift", 0) ]
      else begin
        Metrics.scope_inc t.scope ~by:(List.length events) "drift_events";
        List.iter
          (fun (e : Drift.event) ->
            t.detections <-
              (e.Drift.cloud_id, e.Drift.detected_at) :: t.detections)
          events;
        (* Terraform-style repair, still holding the global lock: fold
           the observed live world into state first (deleted rows
           dropped, drifted attrs overwritten with their live values —
           [Plan.make] diffs desired against state, so without this the
           repair plan is empty and the drift is re-flagged forever),
           then full re-plan + apply. *)
        let state0 =
          List.fold_left
            (fun st (e : Drift.event) ->
              match (e.Drift.kind, e.Drift.addr) with
              | Drift.Deleted_oob, Some addr -> State.remove st addr
              | Drift.Attr_drift { attr; actual; _ }, Some addr -> (
                  match State.find_opt st addr with
                  | Some (r : State.resource_state) ->
                      State.update_attrs st addr
                        (Smap.add attr actual r.State.attrs)
                  | None -> st)
              | _ -> st)
            dep.state events
        in
        dep.state <- state0;
        let instances = expand ~state:state0 dep.config_src in
        let plan = Plan.make ~state:state0 instances in
        let detected = Cloud.now t.cloud in
        Applier.apply t.cloud ~config:(applier_config t dep) ~state:state0
          ~plan ~journal:dep.journal ?breaker:t.breaker ~gate:t.host.gate
      ~alive:t.host.alive
          ~count_api:(count_api t dep ~read:false)
          ~on_done:(fun (o : Applier.outcome) ->
            dep.state <- o.Applier.astate;
            Metrics.scope_inc t.scope "reconciles";
            Metrics.scope_observe t.scope "reconcile_latency"
              (Cloud.now t.cloud -. detected);
            finish_work t dep ~wid ~span:"scan" ~sim_start:swept
              ~meta:[ ("tenant", dep.tenant); ("deployment", dep.dname) ]
              ~counters:
                [
                  ("scan_reads", reads);
                  ("drift", List.length events);
                  ("writes", o.Applier.writes);
                ])
          ()
      end)
    ()

(* ------------------------------------------------------------------ *)
(* Requests + admission backpressure                                   *)
(* ------------------------------------------------------------------ *)

let over_bound t =
  t.config.max_queue_depth > 0 && queue_depth t >= t.config.max_queue_depth

(** Submit an apply request for [dep] with configuration [src] at the
    current simulated time.  With [max_queue_depth = 0] this always
    returns [`Accepted rid] — the pre-backpressure behavior.  Over the
    bound, [Reject] drops the request without consuming a request id;
    [Defer] assigns the id, re-attempts admission every [defer_delay]
    simulated seconds, and keeps the original submit instant so the
    queue-wait and latency histograms carry the deferral cost. *)
let submit_request t dep ~src =
  let submitted = Cloud.now t.cloud in
  if over_bound t && t.config.admission = Reject then begin
    Metrics.scope_inc t.scope "requests_rejected";
    `Rejected
  end
  else begin
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    let rec attempt () =
      if over_bound t then begin
        Metrics.scope_inc t.scope "requests_deferred";
        Cloud.schedule t.cloud ~delay:t.config.defer_delay (fun () ->
            if t.host.alive () then attempt ())
      end
      else begin
        Metrics.scope_inc t.scope "requests";
        enqueue t (Request { dep; rid; src; submitted })
      end
    in
    let deferred = over_bound t in
    attempt ();
    if deferred then `Deferred rid else `Accepted rid
  end

(** Admit a wave-scoped rollback for [dep].  Bypasses the admission
    bound like reconciles do — repair must not be starved by the
    backlog it repairs.  [plan_of] runs at lock-grant time; [notify]
    fires with the completion instant. *)
let submit_rollback t dep ~label ~plan_of ?restore_src ~notify () =
  let submitted = Cloud.now t.cloud in
  Metrics.scope_inc t.scope "rollbacks";
  enqueue t (Rollback_op { dep; label; plan_of; restore_src; submitted; notify })

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let rec arm_scan_timer t dep =
  Cloud.schedule t.cloud ~delay:t.config.drift_period (fun () ->
      if t.host.alive () then begin
        enqueue t (Scan_sweep { dep; swept = Cloud.now t.cloud });
        if Cloud.now t.cloud +. t.config.drift_period <= t.until then
          arm_scan_timer t dep
      end)

(** Arm this shard's per-deployment scan-sweep timers up to simulated
    time [until] — nothing in [Subscribe] mode, where drift is pushed
    in. *)
let arm_timers t ~until =
  t.until <- until;
  match t.config.drift_mode with
  | Subscribe -> ()
  | Scan -> List.iter (fun dep -> arm_scan_timer t dep) t.deployments

(** Fold terminal lock-manager stats into the metrics registry; call
    once when the host's drive loop ends. *)
let finish_stats t =
  let grants, waits = Lock_manager.stats t.lock in
  Metrics.scope_set t.scope "lock_grants" (float_of_int grants);
  Metrics.scope_set t.scope "lock_waits" (float_of_int waits);
  match t.breaker with
  | None -> ()
  | Some b ->
      Metrics.scope_set t.scope "breaker_fast_fails"
        (float_of_int (Breaker.rejections b));
      Metrics.scope_set t.scope "breaker_violations"
        (float_of_int (Breaker.violations b));
      Metrics.scope_set t.scope "breaker_open_cells"
        (float_of_int (Breaker.open_cells b));
      (* close a still-open degraded window at end of run *)
      (match t.degraded_since with
      | Some s ->
          Metrics.scope_observe t.scope "degraded_time"
            (Cloud.now t.cloud -. s);
          t.degraded_since <- None
      | None -> ())
