(** The event-driven control-plane fleet (E15) — the one control-plane
    entry point; a single-loop service is [create ~shards:1].

    [N] {!Shard}s share one simulated cloud, one metrics registry and
    one crash gate.  A {!Router} owns tenant placement (consistent-hash
    ring + rebalance pins).  Drift detection is push-based: one
    multiplexed activity-log subscription per shard; the shard whose
    {!Router.partition} covers an entry classifies it and routes the
    event to the owning tenant's shard (usually a different one —
    [cross_shard_routed] counts the hops).  Queue-depth-driven
    rebalancing moves quiescent tenants from the deepest to the
    shallowest shard and pins them (never armed at one shard).  Policy
    ticks run at fleet level, against fleet-wide observations. *)

module Cloud = Cloudless_sim.Cloud
module Failure = Cloudless_sim.Failure
module Metrics = Cloudless_obs.Metrics

type t

(** [create ?shards config] builds a fleet of [shards] (default 2)
    shards, each recording through a ["shard<i>"]-labeled metrics
    scope. *)
val create :
  ?cloud:Cloud.t ->
  ?trace:Cloudless_obs.Trace.t ->
  ?metrics:Metrics.t ->
  ?shards:int ->
  Shard.service_config ->
  t

val metrics : t -> Metrics.t
val cloud : t -> Cloud.t
val router : t -> Router.t
val shard_count : t -> int
val shards : t -> Shard.t list

(** Install the crash-injection policy; journaled writes are counted
    across the whole fleet. *)
val set_crash : t -> Failure.crash_policy -> unit

val find_deployment :
  t -> tenant:string -> dname:string -> Shard.deployment option

(** Register a deployment on its router-assigned shard. *)
val add_deployment :
  t -> tenant:string -> dname:string -> src:string -> Shard.deployment

(** Submit an apply request to the owning shard, subject to its
    admission bound. *)
val submit_request :
  t ->
  Shard.deployment ->
  src:string ->
  [ `Accepted of int | `Deferred of int | `Rejected ]

(** Admit a wave-scoped rollback on the owning shard (E18); see
    {!Shard.submit_rollback}. *)
val submit_rollback :
  t ->
  Shard.deployment ->
  label:string ->
  plan_of:(unit -> Cloudless_plan.Plan.t) ->
  ?restore_src:string ->
  notify:(float -> unit) ->
  unit ->
  unit

(** The shard the router currently assigns [tenant] to. *)
val owner_shard : t -> string -> Shard.t

(** Every deployment across every shard. *)
val deployments : t -> Shard.deployment list

val managed_resource_count : t -> int

(** (cloud_id, detected_at) across every shard plus unmanaged-entry
    detections, ordered by detection time. *)
val drift_detections : t -> (string * float) list

(** (shard, rid, completion time) across the fleet, by completion
    time. *)
val completed_requests : t -> (int * int * float) list

(** Drive the fleet until the simulated event queue drains: arms shard
    scan timers ([Scan] mode) or installs the per-shard log
    subscriptions ([Subscribe] mode), arms the policy tick and the
    rebalance check, and steps the shared clock draining every shard
    round-robin.
    Raises {!Failure.Engine_crashed} when the crash gate trips.  Call
    once per fleet instance. *)
val run : t -> until:float -> unit

(** Build the dead fleet's successor on the same cloud at the same
    shard count: per-deployment journal replay + orphan adoption, a
    fresh unpinned ring, converge requests, and subscription-cursor
    carryover.  Returns the new fleet and per-deployment recovery
    reports. *)
val resume :
  t -> t * ((string * string) * Cloudless_deploy.Recovery.resume_report) list

(** IaC-engine-created resources alive in the cloud that no
    deployment's state tracks. *)
val orphans : t -> string list

(** MD5 over a canonical, cloud-id-free rendering of every deployment's
    state — identical at any shard count once the fleet has converged
    (cloud ids are replaced by owning addresses; id-derived attributes
    dropped). *)
val state_digest : t -> string
