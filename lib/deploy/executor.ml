(** Deployment execution engines (§3.3).

    One engine parameterized by policy knobs; two canonical
    configurations:

    - {!baseline_config}: reproduces stock Terraform behaviour — full
      state refresh before applying, a fixed parallelism cap of 10, a
      FIFO walk of the ready set.
    - {!cloudless_config}: the paper's proposal — scoped refresh,
      critical-path-first scheduling (remaining-longest-path priority),
      client-side rate pacing against the cloud's own write budget
      ({!Cloud.write_pacer}) that avoids 429s entirely.

    Both back off exponentially with deterministic jitter.  [apply] is
    the run-to-completion driver of the one plan walker ({!Walker}):
    it starts the refresh, then the walk, and steps the discrete-event
    {!Cloudless_sim.Cloud} until idle; all timing comes from the
    simulated clock. *)

module Addr = Cloudless_hcl.Addr
module Cloud = Cloudless_sim.Cloud
module Prng = Cloudless_sim.Prng
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Failure = Cloudless_sim.Failure
module Diagnostic = Cloudless_error.Diagnostic
module Plan = Cloudless_plan.Plan

type schedule_policy = Walker.schedule_policy = Fifo | Critical_path
type scheduler = Walker.scheduler = Sched_heap | Sched_list

type refresh_mode = Walker.refresh_mode =
  | Refresh_none
  | Refresh_full
  | Refresh_scoped

type config = Walker.config = {
  name : string;
  parallelism : int option;
  policy : schedule_policy;
  client_pacing : bool;
  max_retries : int;
  backoff_base : float;
  refresh : refresh_mode;
}

(* Terraform defaults: -parallelism=10, full refresh, plain walk.
   Providers retry throttled calls many times with exponential backoff,
   so give the baseline the same retry budget — the engines differ in
   *scheduling and admission*, not persistence. *)
let baseline_config =
  {
    name = "baseline";
    parallelism = Some 10;
    policy = Fifo;
    client_pacing = false;
    max_retries = 12;
    backoff_base = 2.;
    refresh = Refresh_full;
  }

let cloudless_config =
  {
    name = "cloudless";
    parallelism = None;
    policy = Critical_path;
    client_pacing = true;
    max_retries = 12;
    backoff_base = 2.;
    refresh = Refresh_scoped;
  }

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

let succeeded r = r.failed = [] && r.skipped = []

(* Run one callback-shaped phase to completion: start it, step the
   cloud until idle, and hand back what it reported.  Every phase
   settles before the cloud idles unless the engine crashed, which
   raises out of [Cloud.run_until_idle] first. *)
let drive cloud start =
  let result = ref None in
  start (fun r -> result := Some r);
  Cloud.run_until_idle cloud;
  Option.get !result

(** Apply a plan: refresh per [config.refresh], then walk the plan,
    stepping the cloud until idle after each phase.  See the .mli. *)
let apply (cloud : Cloud.t) ~(config : config) ~(state : State.t)
    ~(plan : Plan.t) ?(seed = 7) ?(sched = Sched_heap)
    ?(trace = Cloudless_obs.Trace.null) ?journal ?breaker
    ?(crash = Failure.No_crash) () : report =
  let module Trace = Cloudless_obs.Trace in
  Trace.with_span trace "execute" @@ fun () ->
  Trace.meta trace "engine" config.name;
  let base_api_calls = Cloud.api_call_count cloud in
  let base_write_throttles = snd (Cloud.write_throttle_stats cloud) in
  let base_read_throttles = snd (Cloud.read_throttle_stats cloud) in
  (* injected process death: the (k+1)-th write of this run raises,
     and every callback of the dead engine is disarmed *)
  let crashed = ref false in
  let alive () = not !crashed in
  let run_ops = ref 0 in
  let gate () =
    incr run_ops;
    match crash with
    | Failure.Crash_after k when !run_ops > k ->
        (* WAL: the intent is durable, the cloud call never leaves the
           engine.  Group: the intent may still sit in the unflushed
           batch — then it dies with the process ([Journal.abandon])
           and so does its withheld call, which recovery simply
           replans. *)
        crashed := true;
        raise (Failure.Engine_crashed k)
    | _ -> ()
  in
  let count_api _ = () in
  (* phase 1: refresh *)
  let refresh_started = Cloud.now cloud in
  let refresh addrs =
    let r =
      drive cloud (fun on_done ->
          Walker.refresh cloud ~engine:config.name ~state ?addrs ~alive
            ~count_api ~on_done ())
    in
    (r.Walker.rstate, r.Walker.reads)
  in
  let base_state, refresh_reads =
    match config.refresh with
    | Refresh_none -> (state, 0)
    | Refresh_full -> refresh None
    | Refresh_scoped ->
        (* §3.3: only the plan's impact scope; an empty state records
           no row, so a cold apply does no scope work *)
        let scope =
          if State.is_empty state then Addr.Set.empty
          else Plan.refresh_scope plan
        in
        if Addr.Set.is_empty scope then (state, 0) else refresh (Some scope)
  in
  let refresh_duration = Cloud.now cloud -. refresh_started in
  (* phase 2: the walk; under [client_pacing], paced by a bucket of
     this apply's own that mirrors the provider's write budget *)
  let started_at = Cloud.now cloud in
  let pacer =
    if config.client_pacing then Some (Cloud.write_pacer cloud) else None
  in
  let o =
    drive cloud (fun on_done ->
        Walker.apply cloud ~config ~state:base_state
          ~graph:(Plan.exec_graph plan) ~sched ~jitter:(Prng.create seed)
          ?journal ?breaker ?pacer ~gate ~alive ~count_api ~on_done ())
  in
  let finished_at = Cloud.now cloud in
  (match journal with
  | Some j -> Journal.append j (Journal.Run_finished { time = finished_at })
  | None -> ());
  let throttled =
    snd (Cloud.write_throttle_stats cloud)
    - base_write_throttles
    + snd (Cloud.read_throttle_stats cloud)
    - base_read_throttles
  in
  let diagnostics = Lazy.force o.Walker.diagnostics in
  (* executor-owned per-stage counters, each give-up under its
     diagnostic code; the cloud itself counted api_calls/throttled onto
     the active span as calls were submitted *)
  List.iter
    (fun (d : Diagnostic.t) ->
      Trace.count trace
        (String.map (function '-' -> '_' | c -> c) d.Diagnostic.code)
        1)
    diagnostics;
  Trace.count trace "retries" o.Walker.retries;
  Trace.count trace "refresh_reads" refresh_reads;
  Trace.count trace "sched_picks" o.Walker.picks;
  Trace.count trace "applied" (List.length o.Walker.applied);
  Trace.count trace "failed" (List.length o.Walker.failed);
  Trace.count trace "skipped" (List.length o.Walker.skipped);
  {
    engine = config.name;
    started_at;
    finished_at;
    makespan = finished_at -. started_at;
    refresh_reads;
    refresh_duration;
    api_calls = Cloud.api_call_count cloud - base_api_calls;
    throttled;
    retries = o.Walker.retries;
    applied = o.Walker.applied;
    failed = o.Walker.failed;
    skipped = o.Walker.skipped;
    state = o.Walker.astate;
    sched_picks = o.Walker.picks;
    sched_time = o.Walker.sched_time;
    peak_ready = o.Walker.peak_ready;
    diagnostics;
  }
