(** Callback-style deployment execution for the control plane.

    The same plan-walk, write-ahead journaling and retry semantics as
    {!Cloudless_deploy.Executor.apply}, but purely callback-shaped: no
    internal [run_until_idle]/[step] calls anywhere — {!apply} returns
    immediately after seeding its ready set, progress rides on cloud
    callbacks, and completion is announced through [on_done].  Many
    appliers (one per in-flight unit of work, across tenants and
    shards) interleave on one shared simulated timeline.

    Determinism constraints: exponential backoff whose optional jitter
    draws from a private PRNG seeded from the engine name — never from
    the cloud's PRNG and never from timing — so metrics snapshots stay
    byte-identical across runs; the crash gate is injected ([gate]
    runs after each intent is journaled, before the cloud call is
    issued); every callback first checks [alive] so a crashed
    service's in-flight operations complete with nobody listening.

    When a {!Cloudless_deploy.Breaker} is supplied, every write
    acquires its (kind, rtype) cell first: Open cells fast-fail the
    change with {!Cloudless_deploy.Breaker.open_reason} (no intent
    journaled, no cloud call), failures feed the cell, and a failure
    that trips the cell aborts the remaining retry budget so the owner
    can park the work until the breaker's half-open probe. *)

module Addr = Cloudless_hcl.Addr
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Drift = Cloudless_drift.Drift
module Breaker = Cloudless_deploy.Breaker

type config = {
  engine : string;  (** activity-log actor; also the journal's engine name *)
  parallelism : int option;  (** in-flight op cap; [None] = unbounded *)
  max_retries : int;
  backoff_base : float;  (** deterministic exponential backoff base *)
  jitter : bool;
      (** multiply each backoff by 0.8–1.2 from the engine-seeded PRNG *)
}

val default_config : string -> config

type refresh_outcome = {
  rstate : State.t;
  reads : int;
  missing : Addr.t list;  (** in state but gone from the cloud *)
}

(** Re-read cloud attributes for tracked resources ([addrs] scopes the
    read set; absent = full refresh).  [count_api] is called once per
    submitted call so the owner can attribute API load per tenant. *)
val refresh :
  Cloud.t ->
  engine:string ->
  state:State.t ->
  ?addrs:Addr.Set.t ->
  ?parallelism:int ->
  alive:(unit -> bool) ->
  count_api:(int -> unit) ->
  on_done:(refresh_outcome -> unit) ->
  unit ->
  unit

type outcome = {
  astate : State.t;  (** state after every successful operation *)
  applied : Addr.t list;  (** completion order *)
  failed : (Addr.t * string) list;  (** completion order *)
  skipped : Addr.t list;  (** plan order *)
  writes : int;  (** cloud write calls journaled (incl. retries) *)
}

(** Walk [graph] — a plan compiled once by {!Plan.exec_graph}, so a
    caller that re-applies the same plan reuses it — over [cloud],
    calling [on_done] when every change has settled.  [gate] runs
    after each intent is journaled and before the cloud call leaves
    the engine — raising from it models process death with the intent
    durable.  The walk costs O(graph): op ids continue from
    {!Journal.last_op}, never from a scan of the journal. *)
val apply :
  Cloud.t ->
  config:config ->
  state:State.t ->
  graph:Plan.exec_graph ->
  ?journal:Journal.t ->
  ?breaker:Breaker.t ->
  gate:(unit -> unit) ->
  alive:(unit -> bool) ->
  count_api:(int -> unit) ->
  on_done:(outcome -> unit) ->
  unit ->
  unit

(** Read every tracked resource and compare with state — the
    driftctl-style sweep, shaped for the service event loop.  O(state)
    management-API reads per sweep.  [on_done] receives the drift
    events and the read count. *)
val scan :
  Cloud.t ->
  engine:string ->
  state:State.t ->
  alive:(unit -> bool) ->
  count_api:(int -> unit) ->
  on_done:(Drift.event list * int -> unit) ->
  unit ->
  unit
