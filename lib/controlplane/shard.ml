(** One control-plane shard: the deterministic event loop that owns a
    subset of tenants (E15).

    This module is the execution engine: the prioritized work queue,
    lock-managed admission, drift intake, and one runner that takes
    every granted unit of work (a tenant request, a wave rollback, a
    drift reconcile or a baseline scan sweep) through the same steps:
    grant effects, a read phase, a plan, one journaled walk, then park
    or complete.  What it deliberately does {e not} own is fleet
    policy — crash injection, liveness, policy-controller ticks and
    tenant placement belong to the {!Fleet} that hosts [N] shards
    (one for a single-loop service) behind a {!Router}, feeding each
    one from a multiplexed activity-log subscription.

    The host's crash gate, liveness flag and write pacer are injected
    as a {!host} record, so a shard never reaches outside its own
    tenant subset.  All metrics flow through a {!Metrics.scope} labeled
    ["shard<i>"]: each signal is recorded under its bare name and again
    as ["name.shard<i>"].  Each is named once, as a {!Metrics.handle},
    on the shard's first write, and a tenant's own series on its
    deployment's first, so a write builds no name and hashes none.

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
    rtype) cell is {e parked} on that cell's wait list rather than
    failed — partial progress is persisted, locks release so
    unaffected tenants keep flowing, and the original submit time is
    preserved (latency histograms carry the full episode cost).  The
    cell wakes its waiters, nothing polls: at the end of its cooldown
    it re-admits them in park order until one takes the half-open
    probe, and when the probe's verdict closes it, it re-admits them
    all.  A re-admitted request re-reads the deployment's {e latest}
    config revision, so a parked request can never roll a tenant back
    to a stale wave.  A re-admission that finds the source
    and the state it parked with reuses the execution graph compiled
    for them.  Every shard shares one parsed and compiled config
    ({!Cloudless_hcl.Eval.compile}) per distinct source, and each unit
    instantiates it against its own state, so a revision is compiled
    once however often it is planned, retried or reconciled; a
    reconcile whose revision fixes every address and dependency takes
    its impact scope from that compiled revision without expanding.
    A unit that fails on a typed error puts back the revision it was
    granted with, so a request with a bad source leaves the last good
    one in place.  While any
    cell is Open the shard also sheds baseline scan sweeps: a sweep
    would burn O(state) reads only to fast-fail its repair. *)

module Hcl = Cloudless_hcl
module Addr = Hcl.Addr
module Value = Hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Failure = Cloudless_sim.Failure
module Rate_limiter = Cloudless_sim.Rate_limiter
module Pq = Cloudless_sim.Pqueue
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Dag = Cloudless_graph.Dag
module Lock_manager = Cloudless_lock.Lock_manager
module Drift = Cloudless_drift.Drift
module Breaker = Cloudless_deploy.Breaker
module Executor = Cloudless_deploy.Executor
module Walker = Cloudless_deploy.Walker
module Prng = Cloudless_sim.Prng
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics

type preset = Baseline | Fleet
type admission = Defer | Reject

type service_config = {
  preset : preset;
  drift_period : float;  (** scan sweep period of [Baseline], sim s *)
  policy_period : float;  (** fleet policy tick period; 0 = off *)
  max_queue_depth : int;  (** admission bound; 0 = unbounded *)
  admission : admission;  (** what to do with requests over the bound *)
  rebalance_period : float;  (** fleet rebalance check period; 0 = off *)
  breaker : Breaker.config option;
      (** circuit-breaker cells per (API kind, rtype); [None] = off *)
}

let baseline_service =
  {
    preset = Baseline;
    drift_period = 60.;
    policy_period = 0.;
    max_queue_depth = 0;
    admission = Defer;
    rebalance_period = 0.;
    breaker = None;
  }

let fleet_service =
  { baseline_service with preset = Fleet; rebalance_period = 120. }

(* Re-admission delay of a request deferred by the admission bound,
   sim s.  Parked work has no delay: its breaker cell wakes it. *)
let defer_delay = 5.

(* A request's plan, compiled to the walker's flat graph, keyed by the
   source it was planned from and the identity of the state it was
   diffed against. *)
type plan_memo = { msrc : string; mstate : State.t; mgraph : Plan.change Dag.t }

(* A tenant's own metrics, named once per deployment, on its first
   write: ["api_calls.<tenant>"], ["request_latency.<tenant>"] and
   ["requests_parked.<tenant>"].  A fleet registers thousands of
   deployments in its setup, most of which never park. *)
type tenant_meters = {
  calls : Metrics.handle;
  latency : Metrics.handle;
  parked : Metrics.handle;
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
  mutable memo : plan_memo option;
      (** the last request plan, kept while that request is parked *)
  mutable tenant_meters : tenant_meters option;
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

(* Parked work waiting on one breaker cell, in park order, and whether
   the timer at the end of the cell's cooldown is armed. *)
type waiters = { units : work Queue.t; mutable armed : bool }

(* The shard's metrics, each named once, on the shard's first write (a
   fleet creates its shards in its setup): a write records under the
   bare name and as ["name.shard<i>"]. *)
type meters = {
  api_calls : Metrics.handle;
  api_reads : Metrics.handle;
  api_writes : Metrics.handle;
  queue_depth : Metrics.handle;
  parked_work : Metrics.handle;
  drift_events : Metrics.handle;
  drift_detection_latency : Metrics.handle;
  scan_reads : Metrics.handle;
  scans_shed : Metrics.handle;
  request_queue_wait : Metrics.handle;
  requests : Metrics.handle;
  requests_deferred : Metrics.handle;
  requests_rejected : Metrics.handle;
  requests_done : Metrics.handle;
  request_latency : Metrics.handle;
  requests_parked : Metrics.handle;
  reconciles : Metrics.handle;
  reconcile_latency : Metrics.handle;
  reconciles_parked : Metrics.handle;
  rollbacks : Metrics.handle;
  rollbacks_done : Metrics.handle;
  rollback_latency : Metrics.handle;
  rollbacks_parked : Metrics.handle;
  work_failures : Metrics.handle;
  breaker_opened : Metrics.handle;
  breaker_half_open : Metrics.handle;
  breaker_closed : Metrics.handle;
  breaker_open_cells : Metrics.handle;
  breaker_fast_fails : Metrics.handle;
  breaker_violations : Metrics.handle;
  degraded_entries : Metrics.handle;
  degraded_time : Metrics.handle;
  lock_grants : Metrics.handle;
  lock_waits : Metrics.handle;
}

let make_meters scope =
  let h = Metrics.scope_handle scope in
  {
    api_calls = h "api_calls";
    api_reads = h "api_reads";
    api_writes = h "api_writes";
    queue_depth = h "queue_depth";
    parked_work = h "parked_work";
    drift_events = h "drift_events";
    drift_detection_latency = h "drift_detection_latency";
    scan_reads = h "scan_reads";
    scans_shed = h "scans_shed";
    request_queue_wait = h "request_queue_wait";
    requests = h "requests";
    requests_deferred = h "requests_deferred";
    requests_rejected = h "requests_rejected";
    requests_done = h "requests_done";
    request_latency = h "request_latency";
    requests_parked = h "requests_parked";
    reconciles = h "reconciles";
    reconcile_latency = h "reconcile_latency";
    reconciles_parked = h "reconciles_parked";
    rollbacks = h "rollbacks";
    rollbacks_done = h "rollbacks_done";
    rollback_latency = h "rollback_latency";
    rollbacks_parked = h "rollbacks_parked";
    work_failures = h "work_failures";
    breaker_opened = h "breaker_opened";
    breaker_half_open = h "breaker_half_open";
    breaker_closed = h "breaker_closed";
    breaker_open_cells = h "breaker_open_cells";
    breaker_fast_fails = h "breaker_fast_fails";
    breaker_violations = h "breaker_violations";
    degraded_entries = h "degraded_entries";
    degraded_time = h "degraded_time";
    lock_grants = h "lock_grants";
    lock_waits = h "lock_waits";
  }

type host = {
  gate : unit -> unit;
      (** journaled-write crash gate, shared across the whole service *)
  alive : unit -> bool;  (** service liveness; a dead host stops draining *)
  pacer : Rate_limiter.t;
      (** the write bucket every unbounded walk books from, shared
          across the whole service *)
}

type t = {
  cloud : Cloud.t;
  sid : int;  (** shard index within the fleet *)
  config : service_config;
  host : host;
  lock : Lock_manager.t;
  queue : (int, work) Pq.t;  (** prio = work class; FIFO within class *)
  registry : Metrics.t;  (** the fleet's, behind the shard's scope *)
  meters : meters Lazy.t;
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
  waiting : (string * string, waiters) Hashtbl.t;
      (** parked work by the (API kind, rtype) cell that blocked it *)
  mutable depth_written : int;
      (** the last value {!drain} wrote to the ["queue_depth"] gauge;
          -1 before the first write *)
}

let sid t = t.sid
let lock t = t.lock
let breaker t = t.breaker
let parked_work t =
  Hashtbl.fold (fun _ w n -> n + Queue.length w.units) t.waiting 0
let meters t = Lazy.force t.meters
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
    memo = None;
    tenant_meters = None;
  }

let tenant_meters t dep =
  match dep.tenant_meters with
  | Some m -> m
  | None ->
      let h = Metrics.handle t.registry ~label:dep.tenant in
      let m =
        { calls = h "api_calls"; latency = h "request_latency"; parked = h "requests_parked" }
      in
      dep.tenant_meters <- Some m;
      m

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

let pending_decr t tenant =
  Hashtbl.replace t.pending tenant (max 0 (tenant_pending t tenant - 1))

(** Total resources across this shard's deployments. *)
let managed_resource_count t =
  List.fold_left (fun acc d -> acc + State.size d.state) 0 t.deployments

(* ------------------------------------------------------------------ *)
(* Config expansion (shared by every unit of work)                     *)
(* ------------------------------------------------------------------ *)

(* A config revision as every unit of work uses it: compiled once, and
   the graph a reconcile cuts its impact scope from, built on first use
   when compile fixed every address and dependency. *)
type revision = {
  compiled : Hcl.Eval.compiled;
  scope_graph : Hcl.Eval.instance Dag.t option Lazy.t;
}

(* Compiled revisions, keyed by source content and shared by every
   shard of every fleet: a pass compiles a handful of distinct revisions
   for thousands of grants.  The ephemeron drops an entry with the last
   live copy of its source string, so the table holds only live
   revisions.  Sharing is safe because parsing and compiling are pure
   and both results immutable; a source that fails to parse is never
   entered, so it raises afresh on every attempt. *)
module Parsed = Ephemeron.K1.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let parsed : revision Parsed.t = Parsed.create 16

let parse_config src =
  match Parsed.find_opt parsed src with
  | Some r -> r
  | None ->
      let cfg = Hcl.Config.parse ~file:"<service>" src in
      let compiled = Hcl.Eval.compile cfg in
      let r =
        {
          compiled;
          scope_graph =
            lazy (Option.map Dag.of_instances (Hcl.Eval.skeleton compiled));
        }
      in
      Parsed.replace parsed src r;
      r

let expand ~state src =
  (Hcl.Eval.instantiate ~env:(Plan.env_for state) (parse_config src).compiled)
    .Hcl.Eval.instances

let count_api t dep ~read n =
  Metrics.Handle.inc (meters t).api_calls n;
  Metrics.Handle.inc (tenant_meters t dep).calls n;
  Metrics.Handle.inc (if read then (meters t).api_reads else (meters t).api_writes) n

(* Every unit of work walks its plan through the one plan walker with
   the shard's inputs: a FIFO walk, the deployment's journal, the
   shard's breaker and the host's crash gate and liveness.  A [Fleet]
   walk is unbounded and books its writes from the host's pacer; a
   [Baseline] one keeps ten writes in flight, unpaced, and retries
   429s, as Terraform does.  Jitter rides with the breaker only, so pre-E17
   presets stay byte-identical to their committed metrics snapshots;
   it draws from a PRNG seeded from the engine name alone, so the
   stream is the same on every run and every resume.  The unit's run
   is closed in the journal as the walk settles. *)
let walk t dep ~state ~graph ~on_done =
  Walker.apply t.cloud
    ~config:
      {
        Executor.baseline_config with
        Executor.name = dep.engine;
        parallelism =
          (match t.config.preset with Baseline -> Some 10 | Fleet -> None);
      }
    ~state ~graph
    ?jitter:
      (match t.breaker with
      | Some _ -> Some (Prng.create (Hashtbl.hash dep.engine land 0x3FFFFFFF))
      | None -> None)
    ~journal:dep.journal ?breaker:t.breaker
    ?pacer:
      (match t.config.preset with
      | Fleet -> Some t.host.pacer
      | Baseline -> None)
    ~gate:t.host.gate ~alive:t.host.alive
    ~count_api:(count_api t dep ~read:false)
    ~on_done:(fun o ->
      Journal.append dep.journal
        (Journal.Run_finished { time = Cloud.now t.cloud });
      on_done o)
    ()

(* ------------------------------------------------------------------ *)
(* The work queue and its runner                                       *)
(* ------------------------------------------------------------------ *)

(* Priority classes; FIFO within a class via the heap's insertion
   sequence.  Tenant-facing requests outrank background repair. *)
let work_class = function
  | Request _ | Rollback_op _ -> 0.
      (* a rollback is the urgent tail of a tenant-facing change:
         deprioritizing it would leave the bad revision live longer *)
  | Reconcile _ | Scan_sweep _ -> 1.

let dep_of = function
  | Request { dep; _ } | Reconcile { dep; _ } -> dep
  | Scan_sweep { dep; _ } | Rollback_op { dep; _ } -> dep

(** Queued plus lock-blocked work — the admission signal the
    backpressure bound and the fleet rebalancer both read. *)
let queue_depth t = Pq.length t.queue + Lock_manager.queue_length t.lock

(* A unit of work from its lock grant to its span. *)
type granted = {
  work : work;
  dep : deployment;
  owner : string;  (** the lock owner, unique per unit of work *)
  granted_src : string;
      (** [dep.config_src] before the grant effects, restored if the
          unit fails *)
  mutable impact : Addr.Set.t option;  (** a reconcile's impact scope *)
  mutable reads : int;  (** API reads of the read phase *)
  mutable drift : int;  (** drift events a scan sweep found *)
}

(* Record classified drift events, pushed in by a subscription or found
   by a scan sweep.  Only log-based events know when the drift occurred
   (a scanner's carry no [occurred_at]), so only they add a
   detection-latency sample. *)
let record_drift t (events : Drift.event list) =
  if events <> [] then
    Metrics.Handle.inc (meters t).drift_events (List.length events);
  List.iter
    (fun (e : Drift.event) ->
      t.detections <- (e.Drift.cloud_id, e.Drift.detected_at) :: t.detections;
      match e.Drift.occurred_at with
      | Some at ->
          Metrics.Handle.observe (meters t).drift_detection_latency
            (e.Drift.detected_at -. at)
      | None -> ())
    events

(* Terraform-style scan repair folds the observed live world into state
   first: deleted rows dropped, drifted attrs overwritten with their
   live values.  [Plan.make] diffs desired against state, so without
   this the repair plan is empty and the drift is re-flagged forever. *)
let fold_drift state (events : Drift.event list) =
  List.fold_left
    (fun st (e : Drift.event) ->
      match (e.Drift.kind, e.Drift.addr) with
      | Drift.Deleted_oob, Some addr -> State.remove st addr
      | Drift.Attr_drift { attr; actual; _ }, Some addr -> (
          match State.find_opt st addr with
          | Some (r : State.resource_state) ->
              State.update_attrs st addr (Smap.add attr actual (State.attrs r))
          | None -> st)
      | _ -> st)
    state events

(* Re-read the unit's rows ([addrs] scopes the read set; absent = all)
   and hand [k] the refreshed state.  Rows the refresh proved gone are
   dropped so the re-plan recreates them. *)
let refresh t u ?addrs k =
  Walker.refresh t.cloud ~engine:u.dep.engine ~state:u.dep.state ?addrs
    ~alive:t.host.alive
    ~count_api:(count_api t u.dep ~read:true)
    ~on_done:(fun (r : Walker.refresh_outcome) ->
      u.reads <- r.Walker.reads;
      k (List.fold_left State.remove r.Walker.rstate r.Walker.missing))
    ()

(* The read phase hands [k] the state to plan against.  A [Baseline]
   request on a non-empty state refreshes every row, a reconcile the
   drift's impact scope, and a scan sweep reads every row and folds the
   drift it finds into the state; other units read nothing. *)
let read t u k =
  let dep = u.dep in
  match u.work with
  | Request _ when t.config.preset = Baseline && State.size dep.state > 0 ->
      refresh t u k
  | Request _ | Rollback_op _ -> k dep.state
  | Reconcile { seeds; _ } ->
      (* The scope needs only addresses and dependencies.  Compile
         fixes them when no shape or dependency reads state and no
         expression can fail, and the revision keeps their graph;
         otherwise the revision is instantiated against the
         pre-refresh state.  The plan instantiates again against the
         refreshed state, which lacks the rows the refresh proved gone,
         so the repair plan recreates them (in a quarter of E14's
         reconciles). *)
      let graph =
        match Lazy.force (parse_config dep.config_src).scope_graph with
        | Some g -> g
        | None -> Dag.of_instances (expand ~state:dep.state dep.config_src)
      in
      let scope = Dag.impact_scope graph seeds in
      u.impact <- Some scope;
      refresh t u ~addrs:scope k
  | Scan_sweep _ ->
      Drift.Scanner.start t.cloud ~engine:dep.engine ~state:dep.state
        ~alive:t.host.alive
        ~count_api:(count_api t dep ~read:true)
        ~on_done:(fun (r : Drift.Scanner.scan_result) ->
          let events = r.Drift.Scanner.events in
          u.reads <- r.Drift.Scanner.api_reads;
          u.drift <- List.length events;
          Metrics.Handle.inc (meters t).scan_reads u.reads;
          record_drift t events;
          k (fold_drift dep.state events))
        ()

(* The unit's plan against [state0], compiled to the walker's graph: the
   deployment's latest revision, restricted to a reconcile's scope; a
   scan sweep that found no drift has none.  A rollback's inverse plan
   is computed here, at grant time under the deployment lock, so it
   reverses the latest state even when the rollback queued behind
   in-flight work.

   A request's plan is memoized.  A parked request is re-admitted
   against the very state its last fast-failed apply handed back, when
   that apply changed nothing: such an apply returns its input
   state, while any progress, refresh or other unit's completion makes
   a new one.  So the memo hits exactly when source and state identity
   both match, and since expansion, planning and graph compilation are
   pure in (source, state) a hit is the graph a recompute would build. *)
let plan u state0 =
  let dep = u.dep and src = u.dep.config_src in
  match (u.work, dep.memo) with
  | Rollback_op { plan_of; _ }, _ -> Some (Plan.exec_graph (plan_of ()))
  | Scan_sweep _, _ when u.drift = 0 -> None
  | Request _, Some m when m.mstate == state0 && String.equal m.msrc src ->
      Some m.mgraph
  | work, _ ->
      let p = Plan.make ~state:state0 (expand ~state:state0 src) in
      let graph =
        Plan.exec_graph
          (match u.impact with Some s -> Plan.restrict p s | None -> p)
      in
      (match work with
      | Request _ ->
          dep.memo <- Some { msrc = src; mstate = state0; mgraph = graph }
      | Rollback_op _ | Reconcile _ | Scan_sweep _ -> ());
      Some graph

(* The breaker cell the unit parks on: the first one that stopped a
   change of its walk.  A scan repair never parks: it completes with its
   failed changes. *)
let parked_on u (o : Walker.outcome) =
  match u.work with
  | Scan_sweep _ -> None
  | Request _ | Reconcile _ | Rollback_op _ ->
      List.find_map (fun (f : Walker.failure) -> f.Walker.blocked) o.Walker.failed

let waiters t cell =
  match Hashtbl.find_opt t.waiting cell with
  | Some w -> w
  | None ->
      let w = { units = Queue.create (); armed = false } in
      Hashtbl.replace t.waiting cell w;
      w

(* Forward declaration: running work needs [drain] (to hand follow-up
   work to the lock manager) and vice versa.  The fleet drains every
   shard after every simulator event, almost always finding nothing to
   do, so the depth gauge is written only when the depth moved: its
   last and max values are those of a write on every drain. *)
let rec drain t =
  if t.host.alive () then begin
    let depth = queue_depth t in
    if depth <> t.depth_written then begin
      t.depth_written <- depth;
      Metrics.Handle.set (meters t).queue_depth (float_of_int depth)
    end;
    if not (Pq.is_empty t.queue) then begin
      let wid = Pq.top_key t.queue in
      admit t wid (Pq.take t.queue);
      drain t
    end
  end

(* Hand one unit of work to the lock manager; the grant runs it.
   Conflicting work queues FIFO inside the manager, which is exactly
   the serialization order the QCheck property pins down. *)
and admit t wid work =
  let dep = dep_of work in
  match (work, t.breaker) with
  | Scan_sweep _, Some b when Breaker.any_open b ->
      (* degraded mode sheds baseline sweeps: the sweep would burn
         O(state) management reads only to fast-fail its repair;
         the next armed sweep runs once the breaker closes *)
      Metrics.Handle.inc (meters t).scans_shed 1;
      pending_decr t dep.tenant
  | _ ->
      let owner = Printf.sprintf "%s#%d" dep.engine wid in
      Lock_manager.acquire t.lock ~owner ~keys:[ dep.root_key ] (fun () ->
          if t.host.alive () then
            run t
              {
                work;
                dep;
                owner;
                granted_src = dep.config_src;
                impact = None;
                reads = 0;
                drift = 0;
              })

(* Queue a unit of work under a fresh id.  A parked unit comes back
   through here without a new pending count: it never stopped being
   pending. *)
and push t work =
  let wid = t.next_work in
  t.next_work <- wid + 1;
  Pq.push t.queue ~prio:(work_class work) ~key:wid work;
  drain t

(* Run a granted unit of work.  Its grant effects come first: a request
   samples its queue wait and becomes the deployment's latest revision,
   and a rollback restores the pre-wave revision before its apply.  A
   crash between the two leaves the restored source with an incomplete
   rollback, which the ordinary journal-replay resume then converges:
   the same idempotent window every request has.  Then the read phase,
   the plan and one walk.  A typed error up to the walk ends the unit
   through [fail]. *)
and run t u =
  try
    (match u.work with
    | Request { src; submitted; _ } ->
        Metrics.Handle.observe (meters t).request_queue_wait
          (Cloud.now t.cloud -. submitted);
        u.dep.config_src <- src
    | Rollback_op { restore_src = Some src; _ } -> u.dep.config_src <- src
    | Rollback_op _ | Reconcile _ | Scan_sweep _ -> ());
    read t u (fun state0 -> plan_and_walk t u state0)
  with Cloudless_error.Error d -> fail t u d

and plan_and_walk t u state0 =
  try
    u.dep.state <- state0;
    let started = Cloud.now t.cloud in
    match plan u state0 with
    | None -> complete t u ~started None
    | Some graph ->
        walk t u.dep ~state:state0 ~graph ~on_done:(fun o ->
            u.dep.state <- o.Walker.astate;
            match parked_on u o with
            | Some cell -> park_work t u cell
            | None -> complete t u ~started (Some o))
  with Cloudless_error.Error d -> fail t u d

(* A unit whose walk settled, or that had nothing to walk: its kind's
   metrics, then [finish].  A reconcile's latency runs from detection,
   a scan repair's from the end of its sweep. *)
and complete t u ~started o =
  let now = Cloud.now t.cloud in
  let repaired ~since =
    Metrics.Handle.inc (meters t).reconciles 1;
    Metrics.Handle.observe (meters t).reconcile_latency (now -. since)
  in
  (match u.work with
  | Request { rid; submitted; _ } ->
      Metrics.Handle.inc (meters t).requests_done 1;
      Metrics.Handle.observe (meters t).request_latency (now -. submitted);
      Metrics.Handle.observe (tenant_meters t u.dep).latency (now -. submitted);
      t.completed <- (rid, now) :: t.completed
  | Rollback_op { submitted; notify; _ } ->
      Metrics.Handle.inc (meters t).rollbacks_done 1;
      Metrics.Handle.observe (meters t).rollback_latency (now -. submitted);
      notify now
  | Reconcile { detected; _ } -> repaired ~since:detected
  | Scan_sweep _ -> if Option.is_some o then repaired ~since:started);
  finish t u o

(* A typed error (a source that does not parse or evaluate, a plan with
   a cycle) ends the unit: the live state returns to the last persisted
   one, the config revision to the one the unit was granted with (so a
   request with a bad source leaves the last good revision for later
   reconciles and for resume), and the unit's span carries the
   diagnostic.  Any other exception is a bug or an injected crash, and
   propagates. *)
and fail t u d =
  u.dep.state <- u.dep.persisted;
  u.dep.config_src <- u.granted_src;
  finish t u ~error:(Cloudless_error.Diagnostic.to_string d) None

(* End a unit of work.  One that ended in a typed error or with a failed
   change counts once in [work_failures].  Then persist the deployment's
   state (end-of-work persistence — the crash window the journal
   covers), drop the plan memo (only parked work keeps one alive),
   release the lock, and emit the unit's span with its kind's name and
   meta, the walk's counts, the read phase's reads, and the error. *)
and finish t u ?error (o : Walker.outcome option) =
  let dep = u.dep in
  let applied, failed, writes =
    match o with
    | Some o -> Walker.(List.length o.applied, List.length o.failed, o.writes)
    | None -> (0, 0, 0)
  in
  if failed > 0 || error <> None then Metrics.Handle.inc (meters t).work_failures 1;
  dep.persisted <- dep.state;
  dep.memo <- None;
  pending_decr t dep.tenant;
  Lock_manager.release t.lock ~owner:u.owner;
  let name, sim_start, kind_meta =
    match u.work with
    | Request { rid; submitted; _ } ->
        ("request", submitted, [ ("rid", string_of_int rid) ])
    | Rollback_op { label; submitted; _ } ->
        ("rollback", submitted, [ ("label", label) ])
    | Reconcile { detected; _ } ->
        ( "reconcile",
          detected,
          match u.impact with
          | Some s -> [ ("scope", string_of_int (Addr.Set.cardinal s)) ]
          | None -> [] )
    | Scan_sweep { swept; _ } -> ("scan", swept, [])
  in
  Trace.emit_span t.trace ~sim_start name
    ~meta:
      ((("tenant", dep.tenant) :: ("deployment", dep.dname) :: kind_meta)
      @ match error with Some e -> [ ("error", e) ] | None -> [])
    ~counters:
      [ ("applied", applied); ("failed", failed); ("writes", writes);
        ("refresh_reads", u.reads) ];
  drain t

(* Park a unit of work that fast-failed against an open breaker cell:
   persist partial progress, release the lock so unaffected tenants
   keep flowing, and queue the unit on the wait list of the cell that
   blocked it.  The unit stays pending (the tenant is not movable, and
   its payload keeps the original submit or detection instant, so
   latency accounting spans the whole episode).  Only the cell wakes
   it: an Open cell at the end of its cooldown, a Half_open one when
   its probe's verdict lands, and one that closed while the walk still
   ran, at once. *)
and park_work t u ((kind, rtype) as cell) =
  let dep = u.dep in
  (match u.work with
  | Request _ ->
      Metrics.Handle.inc (meters t).requests_parked 1;
      Metrics.Handle.inc (tenant_meters t dep).parked 1
  | Rollback_op _ -> Metrics.Handle.inc (meters t).rollbacks_parked 1
  | Reconcile _ | Scan_sweep _ ->
      Metrics.Handle.inc (meters t).reconciles_parked 1);
  dep.persisted <- dep.state;
  Lock_manager.release t.lock ~owner:u.owner;
  let w = waiters t cell in
  (* the wait list keeps the payload alive, not the granted record *)
  Queue.add u.work w.units;
  Metrics.Handle.set (meters t).parked_work (float_of_int (parked_work t));
  (match t.breaker with
  | Some b -> (
      match Breaker.state b ~kind ~rtype with
      | Breaker.Open -> arm_cooldown t b cell w
      | Breaker.Half_open -> ()
      | Breaker.Closed -> wake_all t w)
  | None -> ());
  drain t

(* Put a parked unit back in the work queue.  A request re-reads
   [dep.config_src], so a parked request converges to the latest
   revision, never a stale one. *)
and readmit t work =
  Metrics.Handle.set (meters t).parked_work (float_of_int (parked_work t));
  push t
    (match work with
    | Request r -> Request { r with src = r.dep.config_src }
    | w -> w)

(* Re-admit every unit waiting on a cell, in park order, from a
   zero-delay event: never inside the breaker call that closed the
   cell.  A unit that parks on the cell again waits for its next wake. *)
and wake_all t w =
  if not (Queue.is_empty w.units) then
    Cloud.schedule t.cloud ~delay:0. (fun () ->
        if t.host.alive () then begin
          let batch = Queue.create () in
          Queue.transfer w.units batch;
          Queue.iter (readmit t) batch
        end)

(* One timer per Open cell with waiters, at the end of its cooldown. *)
and arm_cooldown t b ((kind, rtype) as cell) w =
  if (not w.armed) && not (Queue.is_empty w.units) then
    match Breaker.cooldown_end b ~kind ~rtype with
    | None -> ()
    | Some at ->
        w.armed <- true;
        Cloud.schedule_at t.cloud ~time:at (fun () ->
            w.armed <- false;
            if t.host.alive () then cooldown_over t b cell w)

(* The cell's cooldown ended: re-admit its waiters in park order until
   one of them takes the half-open probe and the cell leaves Open.  A
   waiter that queues behind its deployment's lock does not hold the
   probe back: the next one is admitted.  A cell that tripped again
   meanwhile waits out its new cooldown; a Half_open one wakes its
   waiters when its probe's verdict lands. *)
and cooldown_over t b ((kind, rtype) as cell) w =
  match Breaker.cooldown_end b ~kind ~rtype with
  | Some at when at > Cloud.now t.cloud -> arm_cooldown t b cell w
  | Some _ ->
      let rec admit_until_probe n =
        if
          n > 0
          && Breaker.state b ~kind ~rtype = Breaker.Open
          && not (Queue.is_empty w.units)
        then begin
          readmit t (Queue.pop w.units);
          admit_until_probe (n - 1)
        end
      in
      admit_until_probe (Queue.length w.units)
  | None -> ()

(* Degraded-mode bookkeeping, hung off every breaker cell transition:
   state-change counters, the open-cell gauge, the time-in-degraded
   histogram (a degraded window opens when the first cell trips and
   closes when the last one does), and the cell's parked work, all
   re-admitted when the cell closes and timed to its new cooldown when
   it trips again. *)
let on_breaker_transition t ~kind ~rtype ~after ~now =
  (match after with
  | Breaker.Open -> Metrics.Handle.inc (meters t).breaker_opened 1
  | Breaker.Half_open -> Metrics.Handle.inc (meters t).breaker_half_open 1
  | Breaker.Closed -> Metrics.Handle.inc (meters t).breaker_closed 1);
  match t.breaker with
  | None -> ()
  | Some b -> (
      let cells = Breaker.open_cells b in
      Metrics.Handle.set (meters t).breaker_open_cells (float_of_int cells);
      (match (t.degraded_since, cells) with
      | None, n when n > 0 ->
          t.degraded_since <- Some now;
          Metrics.Handle.inc (meters t).degraded_entries 1
      | Some s, 0 ->
          Metrics.Handle.observe (meters t).degraded_time (now -. s);
          t.degraded_since <- None
      | _ -> ());
      match (Hashtbl.find_opt t.waiting (kind, rtype), after) with
      | Some w, Breaker.Closed -> wake_all t w
      | Some w, Breaker.Open -> arm_cooldown t b (kind, rtype) w
      | Some _, Breaker.Half_open | None, _ -> ())

let create ~sid ~cloud ~config ~scope ~trace ~host () =
  let t =
    {
      cloud;
      sid;
      config;
      host;
      lock =
        Lock_manager.create
          (match config.preset with
          | Baseline -> Lock_manager.Global
          | Fleet -> Lock_manager.Per_resource);
      queue = Pq.create Pq.Min_first;
      registry = Metrics.scope_metrics scope;
      meters = lazy (make_meters scope);
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
      waiting = Hashtbl.create 8;
      depth_written = -1;
    }
  in
  (match config.breaker with
  | Some bcfg ->
      t.breaker <-
        Some
          (Breaker.create ~config:bcfg
             ~on_transition:(fun ~kind ~rtype ~before:_ ~after ~now ->
               on_breaker_transition t ~kind ~rtype ~after ~now)
             ())
  | None -> ());
  t

(* A new unit of work is pending from here until it completes or fails. *)
let enqueue t work =
  let tenant = (dep_of work).tenant in
  Hashtbl.replace t.pending tenant (tenant_pending t tenant + 1);
  push t work

(** Record freshly classified drift events against [dep] and enqueue
    the scoped repair; the fleet's subscription path delivers per
    entry. *)
let ingest_drift t dep (events : Drift.event list) =
  record_drift t events;
  match List.filter_map (fun (e : Drift.event) -> e.Drift.addr) events with
  | [] -> ()
  | seeds -> enqueue t (Reconcile { dep; seeds; detected = Cloud.now t.cloud })

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
    Metrics.Handle.inc (meters t).requests_rejected 1;
    `Rejected
  end
  else begin
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    let rec attempt () =
      if over_bound t then begin
        Metrics.Handle.inc (meters t).requests_deferred 1;
        Cloud.schedule t.cloud ~delay:defer_delay (fun () ->
            if t.host.alive () then attempt ())
      end
      else begin
        Metrics.Handle.inc (meters t).requests 1;
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
  Metrics.Handle.inc (meters t).rollbacks 1;
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
    time [until] — none for the [Fleet] preset, whose drift is pushed
    in. *)
let arm_timers t ~until =
  t.until <- until;
  match t.config.preset with
  | Fleet -> ()
  | Baseline -> List.iter (fun dep -> arm_scan_timer t dep) t.deployments

(** Fold terminal lock-manager and breaker stats into the metrics
    registry; call once when the host's drive loop ends.  Each bare
    gauge ends up holding the last shard's value until the fleet sets
    it to the total over its shards. *)
let finish_stats t =
  let grants, waits = Lock_manager.stats t.lock in
  Metrics.Handle.set (meters t).lock_grants (float_of_int grants);
  Metrics.Handle.set (meters t).lock_waits (float_of_int waits);
  match t.breaker with
  | None -> ()
  | Some b ->
      Metrics.Handle.set (meters t).breaker_fast_fails
        (float_of_int (Breaker.rejections b));
      Metrics.Handle.set (meters t).breaker_violations
        (float_of_int (Breaker.violations b));
      Metrics.Handle.set (meters t).breaker_open_cells
        (float_of_int (Breaker.open_cells b));
      (* close a still-open degraded window at end of run *)
      (match t.degraded_since with
      | Some s ->
          Metrics.Handle.observe (meters t).degraded_time
            (Cloud.now t.cloud -. s);
          t.degraded_since <- None
      | None -> ())
