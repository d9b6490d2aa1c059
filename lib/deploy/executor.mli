(** The deployment executor: one engine parameterized by policy
    knobs.  Two presets reproduce the paper's comparison —
    {!baseline_config} (Terraform-like: bounded parallelism, FIFO
    walk, full refresh) and {!cloudless_config} (§3.3: unbounded
    admission under client pacing, critical-path scheduling, scoped
    refresh).  The pacer mirrors the write budget of the cloud it
    applies to ({!Cloud.write_pacer}); no preset states a budget.

    {!apply} is the run-to-completion driver of the one plan walker
    ({!Walker}); all times in the report are simulated seconds except
    [sched_time], which is real wall-clock overhead of the engine's
    own ready-set bookkeeping. *)

module Addr = Cloudless_hcl.Addr
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Failure = Cloudless_sim.Failure
module Diagnostic = Cloudless_error.Diagnostic
module Plan = Cloudless_plan.Plan

type schedule_policy = Walker.schedule_policy = Fifo | Critical_path

(** See {!Walker.scheduler}: every implementation yields the same
    pick order. *)
type scheduler = Walker.scheduler = Sched_heap | Sched_list

(** See {!Walker.refresh_mode}. *)
type refresh_mode = Walker.refresh_mode =
  | Refresh_none
  | Refresh_full
  | Refresh_scoped

type config = Walker.config = {
  name : string;
  parallelism : int option;  (** concurrent in-flight ops; None = unbounded *)
  policy : schedule_policy;
  client_pacing : bool;
      (** §3.3: book each admitted change's writes from a pacer that
          mirrors the cloud's write budget (see {!apply}) *)
  max_retries : int;
  backoff_base : float;
  refresh : refresh_mode;
}

val baseline_config : config
val cloudless_config : config

type failure = Walker.failure = {
  faddr : Addr.t;
  reason : string;
  blocked : (string * string) option;
}

type report = {
  engine : string;
  started_at : float;
  finished_at : float;
  makespan : float;
  refresh_reads : int;
  refresh_duration : float;
  api_calls : int;  (** calls issued by this run (including retries) *)
  throttled : int;  (** 429 responses observed *)
  retries : int;
  applied : Addr.t list;
  failed : failure list;
  skipped : Addr.t list;  (** skipped because a dependency failed *)
  state : State.t;  (** state after the run *)
  sched_picks : int;  (** ready-set admissions performed *)
  sched_time : float;
      (** real (wall-clock) seconds spent inside ready-set operations —
          the engine's own scheduling overhead, as opposed to simulated
          cloud time *)
  peak_ready : int;  (** high-water mark of the ready set *)
  diagnostics : Diagnostic.t list;
      (** structured errors raised during execution (retry exhaustion,
          giving up against an open breaker), in occurrence order *)
}

val succeeded : report -> bool

(** Apply a plan: refresh per [config.refresh] (reads driven to
    idle), then walk the plan through {!Walker.apply} and step the
    cloud until idle.  Returns the report; the returned state reflects
    all successful operations.  Backoff jitter draws from a PRNG
    seeded with [seed].

    With [config.client_pacing] the walk books its writes from a
    bucket of this apply's own, {!Cloud.write_pacer}[ cloud], so the
    engine paces against the budget of the provider it actually talks
    to.

    [Refresh_scoped] re-reads {!Plan.refresh_scope}[ plan]: this is the
    one place a cloudless apply's refresh rows are decided.  An empty
    scope — a delete-only plan, or any plan against an empty state —
    reads nothing and steps no cloud event before the walk.

    [journal] (optional) receives a write-ahead record of every cloud
    write: a {!Journal.Intent} made durable *before* the call leaves
    the engine, the matching {!Journal.Outcome} as soon as the cloud
    answers — the crash-safety substrate (see {!Recovery}).  In
    [Journal.Group k] mode cloud calls are withheld behind the batch's
    flush barrier (released at [k] pending calls and before every
    simulator step), so the write-ahead invariant holds batch-wise;
    see {!Journal.mode} for the crash-window contract.

    [crash] injects engine process death: with [Crash_after k] the
    apply raises {!Failure.Engine_crashed} at the (k+1)-th write — the
    cloud call never issued — and every callback belonging to the dead
    engine is disarmed, so operations already in flight complete on
    the cloud side with nobody listening, exactly like a killed
    process.

    [breaker] (optional) gates every write on its (kind, rtype) circuit
    {!Breaker} cell, as in the control plane: an Open cell fails the
    change at once instead of burning its retry budget, and the
    failure is reported with the distinct diagnostic code
    ["retries-exhausted-outage"] (vs ["retries-exhausted"] for plain
    retry exhaustion) so operators can tell a provider outage from a
    flake. *)
val apply :
  Cloud.t ->
  config:config ->
  state:State.t ->
  plan:Plan.t ->
  ?seed:int ->
  ?sched:scheduler ->
  ?trace:Cloudless_obs.Trace.t ->
  ?journal:Journal.t ->
  ?breaker:Breaker.t ->
  ?crash:Failure.crash_policy ->
  unit ->
  report
