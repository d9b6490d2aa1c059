(** The plan walker: the one place a plan reaches the cloud's write
    API.  Callback-shaped — {!apply} returns after seeding its ready
    set, progress rides on cloud callbacks, and completion is
    announced through [on_done] — so it serves both drivers:
    {!Executor.apply}, which runs a walk to completion, and the control
    plane's shards, which interleave many walks on one event loop. *)

module Addr = Cloudless_hcl.Addr
module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Prng = Cloudless_sim.Prng
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Diagnostic = Cloudless_error.Diagnostic
module Plan = Cloudless_plan.Plan
module Dag = Cloudless_graph.Dag

type schedule_policy = Fifo | Critical_path

(** Ready-set implementation.  [Sched_heap] is the default: a plain
    queue for {!Fifo}, a {!Cloudless_sim.Pqueue} max-heap giving
    O(log n) admissions for {!Critical_path}.  [Sched_list] is the
    historical O(n)-per-pick list scan, kept as a reference
    implementation for scheduler-overhead benchmarks (E11) and for
    equivalence tests — all produce identical pick orders. *)
type scheduler = Sched_heap | Sched_list

(** What the driver re-reads before the walk: nothing, every row the
    state records, or the plan's §3.3 impact scope
    ({!Plan.refresh_scope}). *)
type refresh_mode = Refresh_none | Refresh_full | Refresh_scoped

type config = {
  name : string;  (** activity-log actor; also the journal's engine name *)
  parallelism : int option;  (** concurrent in-flight ops; None = unbounded *)
  policy : schedule_policy;  (** ready order *)
  client_pacing : bool;
      (** §3.3: pace writes against the provider's budget; read by the
          driver, which then hands the walk a [pacer] *)
  max_retries : int;
  backoff_base : float;  (** exponential backoff base, seconds *)
  refresh : refresh_mode;  (** read by the driver, before the walk *)
}

type failure = {
  faddr : Addr.t;
  reason : string;
  blocked : (string * string) option;
      (** the (API kind, rtype) breaker cell that stopped this change:
          it rejected the write, or a failure left it Open *)
}

type refresh_outcome = {
  rstate : State.t;
  reads : int;
  missing : Addr.t list;  (** in state but gone from the cloud *)
}

(** Re-read cloud attributes for tracked resources, at most ten
    reads in flight; throttled reads re-queue.  [addrs] scopes the
    read set (absent = full refresh); reads go out in ascending
    address order either way.
    [count_api] is called once per submitted call so a shard can
    attribute API load per tenant. *)
val refresh :
  Cloud.t ->
  engine:string ->
  state:State.t ->
  ?addrs:Addr.Set.t ->
  alive:(unit -> bool) ->
  count_api:(int -> unit) ->
  on_done:(refresh_outcome -> unit) ->
  unit ->
  unit

type outcome = {
  astate : State.t;
      (** state after every successful operation; the input state
          itself when the walk wrote nothing *)
  applied : Addr.t list;  (** completion order *)
  failed : failure list;  (** completion order *)
  skipped : Addr.t list;  (** plan order: a dependency failed *)
  writes : int;  (** cloud write calls issued (incl. retries) *)
  retries : int;
  picks : int;  (** ready-set admissions *)
  sched_time : float;
      (** real (wall-clock) seconds spent inside ready-set operations *)
  peak_ready : int;  (** high-water mark of the ready set *)
  diagnostics : Diagnostic.t list Lazy.t;
      (** ["retries-exhausted"] when a throttled or transient write runs
          out of retries; ["retries-exhausted-outage"] when a change
          gives up against an Open breaker cell.  Occurrence order;
          rendered when forced. *)
}

(** Walk [graph] — a plan compiled once by {!Plan.exec_graph} — over
    [cloud], calling [on_done] when every change has settled.  A graph
    with a cycle raises a [plan/dependency-cycle] before anything is
    journaled or written, under every policy.  The walk journals
    [Run_started] and, per cloud write, an {!Journal.Intent}
    made durable before the call leaves the engine and the matching
    {!Journal.Outcome} as the cloud answers; the driver closes the run
    with [Run_finished].  Op ids continue from {!Journal.last_op}.

    - [gate] runs after each intent is journaled, before the call is
      issued; raising from it models process death with the intent
      durable.  Every callback first checks [alive], so a dead
      engine's in-flight calls complete with nobody listening.
    - In [Journal.Group k] mode calls are withheld behind the batch's
      flush barrier, released at [k] withheld calls and before control
      returns to the event loop.
    - With a [pacer], a change admitted from the ready set first
      reserves one token of it per write it needs (two for a replace)
      and, when the bucket is in deficit, starts only once refill
      covers the reservation.  The caller owns the bucket and takes it
      from {!Cloud.write_pacer}: {!Executor.apply} one per apply under
      [config.client_pacing], a fleet one for every unbounded walk of
      all its shards.  Retries are not booked; without a [pacer] the
      walk is unpaced.
    - [jitter] multiplies each backoff by a 0.8–1.2 draw.  Throttled
      writes wait [max (retry_after + 0.1) backoff].
    - With a [breaker], each write acquires its (kind, rtype) cell
      first.  A change fails with {!Breaker.open_reason}, and names the
      cell in [blocked], when its cell rejects the write or a failure
      leaves it Open — no retry budget is burned against an Open cell.
      [Quota_exceeded] is retried, and every answer the cloud gives
      settles a half-open probe. *)
val apply :
  Cloud.t ->
  config:config ->
  state:State.t ->
  graph:Plan.change Dag.t ->
  ?sched:scheduler ->
  ?jitter:Prng.t ->
  ?journal:Journal.t ->
  ?breaker:Breaker.t ->
  ?pacer:Rate_limiter.t ->
  gate:(unit -> unit) ->
  alive:(unit -> bool) ->
  count_api:(int -> unit) ->
  on_done:(outcome -> unit) ->
  unit ->
  unit
