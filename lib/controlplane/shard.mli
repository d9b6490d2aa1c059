(** One control-plane shard: the deterministic event loop that owns a
    subset of tenants (E15).

    The execution engine: prioritized work queue, lock-managed
    admission, journaled request/reconcile/scan execution, drift
    intake, and admission backpressure.  Fleet concerns — policy
    ticks, tenant placement — live in the {!Fleet} that hosts [N]
    shards behind a {!Router}; its crash gate and liveness flag reach
    the shard through the {!host} callback record. *)

module Addr = Cloudless_hcl.Addr
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
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
      (** circuit-breaker cells per (API kind, rtype); [None] = off.
          With a breaker, applies fast-fail against Open cells, the
          affected work parks until the next half-open probe (degraded
          mode), baseline scan sweeps are shed while any cell is Open,
          and retry backoff gains engine-seeded jitter. *)
}

(** The Terraform-style operation: one global lock, a full state
    refresh before every apply, periodic scan-based drift sweeps. *)
val baseline_service : service_config

(** The event-driven preset: per-resource locks, push-based drift via
    log subscriptions, scoped reconciles, no refresh before apply,
    periodic rebalancing (armed only with more than one shard). *)
val fleet_service : service_config

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

(** Host callbacks: the seam between a shard and whoever runs it. *)
type host = {
  gate : unit -> unit;
      (** journaled-write crash gate, shared across the whole service *)
  alive : unit -> bool;  (** service liveness; a dead host stops draining *)
}

type t

val create :
  sid:int ->
  cloud:Cloud.t ->
  config:service_config ->
  scope:Metrics.scope ->
  trace:Trace.t ->
  host:host ->
  unit ->
  t

val sid : t -> int
val lock : t -> Lock_manager.t

(** This shard's circuit breakers, when configured. *)
val breaker : t -> Breaker.t option

(** Work units currently parked behind an open breaker cell. *)
val parked_work : t -> int

(** Deployments in registration order. *)
val deployments : t -> deployment list

(** Completed request (rid, completion time) pairs, completion order. *)
val completed_requests : t -> (int * float) list

(** (cloud_id, detected_at) per classified drift event, oldest first. *)
val drift_detections : t -> (string * float) list

val find_deployment : t -> tenant:string -> dname:string -> deployment option
val add_deployment : t -> tenant:string -> dname:string -> src:string -> deployment

(** Rebalance support: a deployment record is shard-agnostic, so a move
    is [remove_deployment] on the source and [adopt_deployment] on the
    destination.  Only move tenants whose {!tenant_pending} is 0. *)
val adopt_deployment : t -> deployment -> unit

val remove_deployment : t -> deployment -> unit

(** Queued plus in-flight work units for [tenant] on this shard. *)
val tenant_pending : t -> string -> int

(** Queued plus lock-blocked work — the admission-bound and rebalance
    signal. *)
val queue_depth : t -> int

(** Total resources across this shard's deployments. *)
val managed_resource_count : t -> int

(** Expand a configuration source against a state (shared by requests,
    reconciles, and post-hoc convergence audits). *)
val expand :
  state:State.t -> string -> Cloudless_hcl.Eval.instance list

(** Submit an apply request at the current simulated time.  Always
    [`Accepted rid] when [max_queue_depth = 0]; over the bound,
    [Reject] drops the request (no request id consumed), [Defer]
    assigns the id and re-attempts every [defer_delay] sim-seconds,
    keeping the original submit instant so latency histograms carry
    the deferral cost. *)
val submit_request :
  t ->
  deployment ->
  src:string ->
  [ `Accepted of int | `Deferred of int | `Rejected ]

(** Admit a wave-scoped rollback for [dep] (E18).  Bypasses the
    admission bound like reconciles — repair must not be starved by
    the backlog it repairs.  [plan_of] computes the inverse plan at
    lock-grant time, under the deployment lock, against the latest
    state; [restore_src] is the pre-wave config revision to restore so
    later reconciles do not re-apply the rolled-back change; [notify]
    fires with the completion instant.  Runs at request priority. *)
val submit_rollback :
  t ->
  deployment ->
  label:string ->
  plan_of:(unit -> Cloudless_plan.Plan.t) ->
  ?restore_src:string ->
  notify:(float -> unit) ->
  unit ->
  unit

(** Record classified drift events against [dep] and enqueue the scoped
    repair — the push-mode entry point the fleet's activity-log
    subscriptions feed. *)
val ingest_drift : t -> deployment -> Drift.event list -> unit

(** Arm the per-deployment scan-sweep timers up to simulated time
    [until].  [Subscribe] mode arms none. *)
val arm_timers : t -> until:float -> unit

(** Drain the work queue; the host calls this after every simulator
    step it drives. *)
val drain : t -> unit

(** Fold terminal lock-manager stats into metrics; call once when the
    host's drive loop ends. *)
val finish_stats : t -> unit
