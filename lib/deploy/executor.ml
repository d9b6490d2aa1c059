(** Deployment execution engines (§3.3).

    One event-driven executor parameterized by policy knobs; two
    canonical configurations:

    - {!baseline_config}: reproduces stock Terraform behaviour — full
      state refresh before applying, a fixed parallelism cap of 10, a
      FIFO walk of the ready set, naive fixed backoff on throttling.
    - {!cloudless_config}: the paper's proposal — scoped refresh,
      critical-path-first scheduling (remaining-longest-path priority),
      client-side rate pacing that avoids 429s entirely, exponential
      backoff with deterministic jitter.

    The executor drives the discrete-event {!Cloudless_sim.Cloud} via
    callbacks; all timing comes from the simulated clock. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Service_model = Cloudless_sim.Service_model
module Prng = Cloudless_sim.Prng
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Failure = Cloudless_sim.Failure
module Diagnostic = Cloudless_error.Diagnostic
module Dag = Cloudless_graph.Dag
module Plan = Cloudless_plan.Plan

type schedule_policy = Fifo | Critical_path

(** Ready-set implementation.  [Sched_heap] is the default: a shared
    {!Cloudless_sim.Pqueue} binary heap giving O(log n) admissions.
    [Sched_list] is the historical O(n)-per-pick list scan, kept as a
    reference implementation for scheduler-overhead benchmarks (E11)
    and for equivalence tests — both produce identical pick orders. *)
type scheduler = Sched_heap | Sched_list

type refresh_mode = Refresh_none | Refresh_full | Refresh_scoped of Addr.Set.t

type config = {
  name : string;
  parallelism : int option;  (** concurrent in-flight ops; None = unbounded *)
  policy : schedule_policy;
  client_pacing : bool;  (** §3.3: admission control against API limits *)
  max_retries : int;
  backoff_base : float;
  backoff_exponential : bool;
  refresh : refresh_mode;
  pacing_budget : float * float;
      (** (burst capacity, refill/s) the pacer assumes the provider
          grants — the documented API budget *)
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
    backoff_exponential = true;
    refresh = Refresh_full;
    pacing_budget = (50., 2.);
  }

let cloudless_config =
  {
    name = "cloudless";
    parallelism = None;
    policy = Critical_path;
    client_pacing = true;
    max_retries = 12;
    backoff_base = 2.;
    backoff_exponential = true;
    refresh = Refresh_none;  (* set per run: scoped *)
    pacing_budget = (50., 2.);
  }

type failure = { faddr : Addr.t; reason : string }

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
      (** structured errors raised during execution (currently: retry
          exhaustion), in occurrence order *)
}

let succeeded r = r.failed = [] && r.skipped = []

(* ------------------------------------------------------------------ *)
(* Unknown resolution at apply time                                    *)
(* ------------------------------------------------------------------ *)

(* A desired attribute that referenced another resource's computed
   attribute was planned as [Vunknown "addr.attr"]; once the dependency
   is applied its real value is in state. *)
(* Split an unknown's "addr.attr" payload.  Separated out so the
   executor can memoize it: every instance of a fleet carries the same
   handful of references, and re-parsing the address per change was a
   measurable slice of apply-time allocation. *)
let split_unknown p : (Addr.t * string) option =
  match String.rindex_opt p '.' with
  | None -> None
  | Some i -> (
      let addr_part = String.sub p 0 i in
      let attr = String.sub p (i + 1) (String.length p - i - 1) in
      match Addr.of_string addr_part with
      | Some addr -> Some (addr, attr)
      | None -> None)

(* The worker is parameterized by the splitter and the lookup so the
   executor can route it through its split memo and apply-time write
   overlay (state-to-be, not yet folded into a [State.t]); the public
   entry points close over a plain state. *)
let rec resolve_value_gen split find (v : Value.t) : Value.t =
  match v with
  | Value.Vunknown p -> (
      match split p with
      | None -> Value.Vnull
      | Some (addr, attr) -> (
          match find addr with
          | Some rs -> (
              match Smap.find_opt attr rs.State.attrs with
              | Some v -> v
              | None -> Value.Vnull)
          | None -> Value.Vnull))
  | Value.Vlist vs ->
      (* Preserve sharing: almost no attribute holds an unknown at apply
         time, and rebuilding every list/map on the hot path costs real
         minor-heap words at the million-resource scale. *)
      let vs' = List.map (resolve_value_gen split find) vs in
      if List.for_all2 (fun a b -> a == b) vs vs' then v else Value.Vlist vs'
  | Value.Vmap m ->
      let m' =
        Smap.fold
          (fun k sub acc ->
            let sub' = resolve_value_gen split find sub in
            if sub' == sub then acc else Smap.add k sub' acc)
          m m
      in
      if m' == m then v else Value.Vmap m'
  | v -> v

let resolve_attrs_gen split find attrs =
  Smap.fold
    (fun k sub acc ->
      let sub' = resolve_value_gen split find sub in
      if sub' == sub then acc else Smap.add k sub' acc)
    attrs attrs

let resolve_value state v =
  resolve_value_gen split_unknown (fun a -> State.find_opt state a) v

let resolve_attrs state attrs =
  resolve_attrs_gen split_unknown (fun a -> State.find_opt state a) attrs

(* ------------------------------------------------------------------ *)
(* Refresh phase                                                       *)
(* ------------------------------------------------------------------ *)

type refresh_result = {
  rstate : State.t;
  reads : int;
  missing : Addr.t list;  (** in state but gone from the cloud (drift) *)
  rduration : float;
}

(** Re-read cloud attributes for tracked resources.  [addrs] limits the
    scope (None = all of state, Terraform's default full refresh). *)
let refresh (cloud : Cloud.t) ~engine ~(state : State.t) ?addrs
    ?(parallelism = 10) () : refresh_result =
  let targets =
    match addrs with
    | None -> State.resources state
    | Some set ->
        List.filter
          (fun (r : State.resource_state) -> Addr.Set.mem r.State.addr set)
          (State.resources state)
  in
  let started = Cloud.now cloud in
  let state_ref = ref state in
  let missing = ref [] in
  let reads = ref 0 in
  (* FIFO work list; throttled reads re-enter at the back.  A [Queue.t]
     keeps both operations O(1) — the former list append degraded to
     quadratic under sustained throttling. *)
  let queue = Queue.create () in
  List.iter (fun r -> Queue.add r queue) targets;
  let in_flight = ref 0 in
  let actor = Cloudless_sim.Activity_log.Iac_engine engine in
  let rec pump () =
    if (not (Queue.is_empty queue)) && !in_flight < parallelism then begin
      let r = Queue.pop queue in
      incr in_flight;
      incr reads;
      Cloud.submit cloud ~actor
        (Cloud.Read { cloud_id = r.State.cloud_id })
        (fun result ->
          decr in_flight;
          (match result with
          | Ok attrs ->
              state_ref := State.update_attrs !state_ref r.State.addr attrs
          | Error (Cloud.Not_found _) -> missing := r.State.addr :: !missing
          | Error (Cloud.Throttled _) ->
              (* re-queue at the back; the limiter will recover *)
              Queue.add r queue
          | Error _ -> ());
          pump ());
      pump ()
    end
  in
  pump ();
  Cloud.run_until_idle cloud;
  {
    rstate = !state_ref;
    reads = !reads;
    missing = List.rev !missing;
    rduration = Cloud.now cloud -. started;
  }

(* ------------------------------------------------------------------ *)
(* Apply phase                                                         *)
(* ------------------------------------------------------------------ *)

type node_status = Pending | Running | Done | Failed of string | Skipped

let change_duration (c : Plan.change) =
  match c.Plan.action with
  | Plan.Create -> Service_model.expected c.Plan.rtype Service_model.Op_create
  | Plan.Update _ -> Service_model.expected c.Plan.rtype Service_model.Op_update
  | Plan.Replace _ ->
      Service_model.expected c.Plan.rtype Service_model.Op_delete
      +. Service_model.expected c.Plan.rtype Service_model.Op_create
  | Plan.Delete -> Service_model.expected c.Plan.rtype Service_model.Op_delete
  | Plan.Noop -> 0.

module Pq = Cloudless_sim.Pqueue

let now_mono () = Unix.gettimeofday ()

(** Apply a plan.  Returns the report; the returned state reflects all
    successful operations.  [sched] selects the ready-set
    implementation (default {!Sched_heap}); both orders are identical,
    see {!scheduler}.

    [journal] (optional) receives a write-ahead record of every cloud
    write: an {!Journal.Intent} flushed *before* the call leaves the
    engine, the matching {!Journal.Outcome} as soon as the cloud
    answers — the crash-safety substrate (see [Recovery]).

    [crash] injects engine process death: with [Crash_after k] the
    apply raises {!Failure.Engine_crashed} at the (k+1)-th write — its
    intent is journaled, the cloud call never issued — and every
    callback belonging to the dead engine is disarmed, so operations
    already in flight complete on the cloud side with nobody
    listening, exactly like a killed process. *)
let apply (cloud : Cloud.t) ~(config : config) ~(state : State.t)
    ~(plan : Plan.t) ?(seed = 7) ?(sched = Sched_heap)
    ?(trace = Cloudless_obs.Trace.null) ?journal ?breaker
    ?(crash = Failure.No_crash) () : report =
  let module Trace = Cloudless_obs.Trace in
  Trace.with_span trace "execute" @@ fun () ->
  Trace.meta trace "engine" config.name;
  let prng = Prng.create seed in
  let actor = Cloudless_sim.Activity_log.Iac_engine config.name in
  let base_api_calls = Cloud.api_call_count cloud in
  let base_write_throttles = snd (Cloud.write_throttle_stats cloud) in
  let base_read_throttles = snd (Cloud.read_throttle_stats cloud) in

  (* phase 1: refresh *)
  let refresh_result =
    match config.refresh with
    | Refresh_none ->
        { rstate = state; reads = 0; missing = []; rduration = 0. }
    | Refresh_full -> refresh cloud ~engine:config.name ~state ()
    | Refresh_scoped addrs ->
        refresh cloud ~engine:config.name ~state ~addrs ()
  in
  (* Apply-time writes land in a hash overlay over the (immutable)
     post-refresh base; the final [State.t] is materialized exactly
     once after the run.  Folding [State.add] per change costs a
     O(log n) tree-path copy each — the single largest minor-heap
     producer on the million-create leg — where the overlay pays a few
     words per write and one O(n) bulk tree build (see
     {!Amap.of_sorted_array}).  [state_muts] counts every write the
     per-change sequence would have made, so the final serial is
     byte-identical to the historical fold. *)
  let base_state = refresh_result.rstate in
  let overlay : (Addr.t, State.resource_state option) Hashtbl.t =
    Hashtbl.create 1024
  in
  let state_muts = ref 0 in
  let live_find addr =
    match Hashtbl.find_opt overlay addr with
    | Some entry -> entry
    | None -> State.find_opt base_state addr
  in
  let state_add (row : State.resource_state) =
    Hashtbl.replace overlay row.State.addr (Some row);
    incr state_muts
  in
  let state_update_attrs addr attrs =
    match live_find addr with
    | None -> ()
    | Some r ->
        Hashtbl.replace overlay addr (Some { r with State.attrs });
        incr state_muts
  in
  let state_remove addr =
    Hashtbl.replace overlay addr None;
    incr state_muts
  in
  (* Unknown references repeat heavily (a fleet's instances all point
     at the same few subnets); split each distinct payload once. *)
  let split_cache : (string, (Addr.t * string) option) Hashtbl.t =
    Hashtbl.create 64
  in
  let split_memo p =
    match Hashtbl.find_opt split_cache p with
    | Some r -> r
    | None ->
        let r = split_unknown p in
        Hashtbl.add split_cache p r;
        r
  in
  let resolve_live attrs = resolve_attrs_gen split_memo live_find attrs in
  let resolve_live_value v = resolve_value_gen split_memo live_find v in
  let final_state () =
    if Hashtbl.length overlay = 0 then base_state
    else if State.size base_state = 0 then begin
      (* green-field apply (the 1M-create leg): one O(n) balanced build *)
      let rows =
        Hashtbl.fold
          (fun addr entry acc ->
            match entry with Some r -> (addr, r) :: acc | None -> acc)
          overlay []
        |> Array.of_list
      in
      Array.sort (fun (a, _) (b, _) -> Addr.compare a b) rows;
      State.of_sorted_rows
        ~outputs:(State.outputs base_state)
        ~serial:(State.serial base_state + !state_muts)
        rows
    end
    else
      let st =
        Hashtbl.fold
          (fun addr entry acc ->
            match entry with
            | Some r -> State.add acc r
            | None -> State.remove acc addr)
          overlay base_state
      in
      State.with_serial st (State.serial base_state + !state_muts)
  in
  let started_at = Cloud.now cloud in

  (* crash-safety machinery: write-ahead journaling + injected death *)
  let journal_append entry =
    match journal with Some j -> Journal.append j entry | None -> ()
  in
  (* op ids must stay unique across the segments of one journal (a
     resumed run appends to the journal of the crashed one), while the
     crash gate counts this run's ops only *)
  let ops_started =
    ref
      (match journal with
      | Some j -> Journal.last_op j
      | None -> 0)
  in
  let run_ops = ref 0 in
  let crashed = ref false in
  let diagnostics = ref [] in
  (* group commit ([Journal.Group k]): cloud calls are withheld in a
     FIFO while their intents accumulate in the journal's batch, then
     released together right after one {!Journal.barrier} — the
     write-ahead invariant (no call issued whose intent is not
     durable) holds batch-wise.  Release fires at K withheld calls and
     before every simulator step, so no op is ever withheld across a
     time advance: completion events are scheduled at the same
     simulated instant the WAL path would have used. *)
  let deferred : (unit -> unit) Queue.t = Queue.create () in
  let group =
    match journal with
    | Some j -> (
        match Journal.mode j with
        | Journal.Group k -> Some (j, k)
        | Journal.Wal -> None)
    | None -> None
  in
  let release_deferred () =
    match group with
    | Some (j, _) when not (Queue.is_empty deferred) ->
        Journal.barrier j;
        while not (Queue.is_empty deferred) do
          (Queue.pop deferred) ()
        done
    | _ -> ()
  in

  (* phase 2: apply — everything below runs on the flat interned
     execution graph ([Plan.exec_graph]): node ids are plan-order ints,
     adjacency is rank-sorted int arrays, per-node bookkeeping is flat
     arrays.  Pick orders are byte-identical to the historical
     [Addr]-keyed walk (see the exec_graph doc). *)
  let xg = Plan.exec_graph plan in
  let node_count = Plan.exec_size xg in
  let change_of id = xg.Plan.xchanges.(id) in
  let addr_of id = (change_of id).Plan.addr in
  journal_append
    (Journal.Run_started
       { engine = config.name; changes = node_count; time = started_at });
  (* Materialize the remaining-longest-path priority of every node once,
     up front, instead of consulting a [Dag] closure (and its
     hashtables) on every admission. *)
  let priority =
    match config.policy with
    | Fifo -> fun _ -> 0.
    | Critical_path ->
        let prio = Array.make node_count 0. in
        let order = Array.make (max 1 node_count) 0 in
        let offsets = Array.make (node_count + 1) 0 in
        let rounds = Plan.exec_rounds_into xg ~order ~offsets in
        for i = offsets.(rounds) - 1 downto 0 do
          let id = order.(i) in
          let tail =
            Array.fold_left
              (fun acc r -> Float.max acc prio.(r))
              0. xg.Plan.xrdeps.(id)
          in
          prio.(id) <- tail +. change_duration (change_of id)
        done;
        fun id -> prio.(id)
  in
  let status = Array.make node_count Pending in
  let remaining_deps = Array.map Array.length xg.Plan.xdeps in
  let in_flight = ref 0 in
  let retries = ref 0 in
  let applied = ref [] in
  let failed = ref [] in
  let picks = ref 0 in
  (* float-array cell, not a [float ref]: the accumulator is bumped
     twice per pick and a ref store would box each sum *)
  let sched_time = [| 0. |] in
  (* client-side pacing: mirror the provider's documented write budget *)
  let client_limiter =
    let capacity, refill_rate = config.pacing_budget in
    Rate_limiter.create ~capacity ~refill_rate
  in
  let backoff attempt =
    if config.backoff_exponential then
      config.backoff_base
      *. Float.pow 2. (float_of_int attempt)
      *. Prng.float_range prng 0.8 1.2
    else config.backoff_base
  in

  (* The ready set.  Both implementations produce the same pick order:

     - [Fifo] pops in insertion order (oldest first);
     - [Critical_path] pops the max priority, ties going to the most
       recently inserted node (what the historical newest-first list
       fold with a strict [>] yielded).

     The heap gives O(log n) picks and O(1) skip-removal (lazy
     tombstones); the list scan is O(n) per pick and kept only as the
     E11 reference. *)
  let add_ready, take_ready, remove_ready, peak_ready =
    match sched with
    | Sched_heap ->
        let order =
          match config.policy with
          | Fifo -> Pq.Min_first
          | Critical_path -> Pq.Max_first
        in
        let q : (int, int) Pq.t =
          Pq.create ~initial_capacity:node_count order
        in
        let add id = Pq.push q ~prio:(priority id) ~key:id id in
        let take () =
          match Pq.pop q with
          | None -> None
          | Some (_, _, id) ->
              incr picks;
              Some id
        in
        let remove id = ignore (Pq.remove q id) in
        (add, take, remove, fun () -> Pq.peak_length q)
    | Sched_list ->
        let ready : int list ref = ref [] in
        let count = ref 0 in
        let peak = ref 0 in
        let add id =
          ready := id :: !ready;
          incr count;
          if !count > !peak then peak := !count
        in
        let take () =
          match !ready with
          | [] -> None
          | _ ->
              let pick =
                match config.policy with
                | Fifo ->
                    (* FIFO = oldest first; list is newest-first *)
                    List.nth !ready (List.length !ready - 1)
                | Critical_path ->
                    List.fold_left
                      (fun best id ->
                        match best with
                        | None -> Some id
                        | Some b ->
                            if priority id > priority b then Some id else Some b)
                      None !ready
                    |> Option.get
              in
              ready := List.filter (fun id -> id <> pick) !ready;
              decr count;
              incr picks;
              Some pick
        in
        let remove id =
          let n = List.length !ready in
          ready := List.filter (fun i -> i <> id) !ready;
          count := !count - (n - List.length !ready)
        in
        (add, take, remove, fun () -> !peak)
  in
  let take_ready () =
    let t0 = now_mono () in
    let r = take_ready () in
    sched_time.(0) <- sched_time.(0) +. (now_mono () -. t0);
    r
  in

  let rec mark_skipped id =
    match status.(id) with
    | Pending | Running ->
        status.(id) <- Skipped;
        let t0 = now_mono () in
        remove_ready id;
        sched_time.(0) <- sched_time.(0) +. (now_mono () -. t0);
        Array.iter mark_skipped xg.Plan.xrdeps.(id)
    | _ -> ()
  in

  (* [complete] and [pump] are mutually recursive across the callback
     boundary; tie the knot with a forward reference. *)
  let pump_ref = ref (fun () -> ()) in
  let complete id ok =
    decr in_flight;
    (match ok with
    | Ok () ->
        status.(id) <- Done;
        applied := addr_of id :: !applied;
        Array.iter
          (fun d ->
            let n = remaining_deps.(d) - 1 in
            remaining_deps.(d) <- n;
            if n = 0 && status.(d) = Pending then add_ready d)
          xg.Plan.xrdeps.(id)
    | Error reason ->
        status.(id) <- Failed reason;
        failed := { faddr = addr_of id; reason } :: !failed;
        Array.iter mark_skipped xg.Plan.xrdeps.(id));
    !pump_ref ()
  in

  (* A single change may need several cloud ops (Replace).  [perform]
     runs the op sequence with retries, then calls [complete].

     Every write goes through [submit_logged]: journal the intent,
     apply the crash gate, issue the cloud call with a disarmable
     callback.  Outcomes are journaled at the top of each callback,
     before any state mutation, so the journal is never behind the
     in-memory record either. *)
  (* [submit_logged]/[ok_outcome]/[on_error] used to be let-bound
     inside [perform]; hoisting them into the recursive block saves
     three closure allocations per change on the hot path. *)
  (* The run-to-completion executor carries an optional breaker in
     observer mode: every write outcome feeds the (kind, rtype) cell,
     so retry exhaustion can be classified as outage (cell Open — the
     provider is down for this API) vs flake.  Unlike the control
     plane's applier it never fast-fails or parks: a one-shot CLI
     apply has nowhere to park work, it can only keep retrying. *)
  let breaker_kind = function
    | Journal.Op_create -> "create"
    | Journal.Op_update -> "update"
    | Journal.Op_delete -> "delete"
  in
  let record_breaker (c : Plan.change) kind result =
    match breaker with
    | None -> ()
    | Some b -> (
        let bkind = breaker_kind kind in
        match result with
        | Ok _ ->
            Breaker.success b ~now:(Cloud.now cloud) ~kind:bkind
              ~rtype:c.Plan.rtype
        | Error
            (Cloud.Throttled _ | Cloud.Transient _ | Cloud.Quota_exceeded _)
          ->
            Breaker.failure b ~now:(Cloud.now cloud) ~kind:bkind
              ~rtype:c.Plan.rtype
        | Error _ -> ())
  in
  let breaker_open (c : Plan.change) kind =
    match breaker with
    | None -> false
    | Some b ->
        Breaker.state b ~kind:(breaker_kind kind) ~rtype:c.Plan.rtype
        = Breaker.Open
  in
  let rec submit_logged (c : Plan.change) kind ~payload ~prior op handler =
    let addr = c.Plan.addr in
      incr ops_started;
      incr run_ops;
      let op_id = !ops_started in
      (* build the intent record only when a journal is attached — the
         bare-engine hot path must not pay for crash safety it never
         asked for *)
      (match journal with
      | None -> ()
      | Some j ->
          Journal.append j
            (Journal.Intent
               {
                 Journal.op = op_id;
                 iaddr = addr;
                 kind;
                 rtype = c.Plan.rtype;
                 region = c.Plan.region;
                 payload;
                 prior_cloud_id = prior;
                 deps = c.Plan.deps;
                 log_cursor =
                   Cloudless_sim.Activity_log.length (Cloud.log cloud);
                 itime = Cloud.now cloud;
               }));
      (match crash with
      | Failure.Crash_after k when !run_ops > k ->
          (* WAL: the intent is durable, the cloud call never leaves
             the engine.  Group: the intent may still sit in the
             unflushed batch — then it dies with the process
             ([Journal.abandon]) and so does its withheld call, which
             recovery simply replans.  Either way in-flight callbacks
             are disarmed. *)
          crashed := true;
          raise (Failure.Engine_crashed k)
      | _ -> ());
      match group with
      | None ->
          Cloud.submit cloud ~actor op (fun result ->
              record_breaker c kind result;
              if not !crashed then handler op_id result)
      | Some (_, k) ->
          Queue.add
            (fun () ->
              Cloud.submit cloud ~actor op (fun result ->
                  record_breaker c kind result;
                  if not !crashed then handler op_id result))
            deferred;
          if Queue.length deferred >= k then release_deferred ()
  and ok_outcome ~addr ~op ~kind ~cloud_id attrs =
      match journal with
      | None -> ()
      | Some j ->
          Journal.append j
            (Journal.Outcome
               {
                 Journal.oop = op;
                 oaddr = addr;
                 okind = kind;
                 ok = true;
                 cloud_id;
                 attrs;
                 retried = false;
                 reason = None;
                 otime = Cloud.now cloud;
               })
  and on_error ~id ~c ~attempt ~op ~kind err =
    let addr = c.Plan.addr in
    let record retried =
        match journal with
        | None -> ()
        | Some j ->
            Journal.append j
              (Journal.Outcome
                 {
                   Journal.oop = op;
                   oaddr = addr;
                   okind = kind;
                   ok = false;
                   cloud_id = None;
                   attrs = Smap.empty;
                   retried;
                   reason = Some (Cloud.error_to_string err);
                   otime = Cloud.now cloud;
                 })
      in
      match err with
      | Cloud.Throttled after when attempt < config.max_retries ->
          record true;
          incr retries;
          let delay = Float.max after (backoff attempt) in
          schedule_retry id c (attempt + 1) delay
      | Cloud.Transient _ when attempt < config.max_retries ->
          record true;
          incr retries;
          schedule_retry id c (attempt + 1) (backoff attempt)
      | err ->
          record false;
          (match err with
          | Cloud.Throttled _ | Cloud.Transient _ ->
              (* a retryable error out of retry budget: surface a
                 structured diagnostic, not just a failed report row.
                 With the circuit breaker Open for this (kind, rtype)
                 the exhaustion is an outage, not a flake — distinct
                 code so operators can tell them apart. *)
              if breaker_open c kind then begin
                Trace.count trace "retries_exhausted_outage" 1;
                diagnostics :=
                  Diagnostic.make ~stage:Diagnostic.Deploy
                    ~code:"retries-exhausted-outage" ~addr
                    (Printf.sprintf
                       "gave up after %d attempts with the %s/%s circuit \
                        breaker open — provider outage, not flake: %s"
                       (attempt + 1) (breaker_kind kind) c.Plan.rtype
                       (Cloud.error_to_string err))
                  :: !diagnostics
              end
              else begin
                Trace.count trace "retries_exhausted" 1;
                diagnostics :=
                  Diagnostic.make ~stage:Diagnostic.Deploy
                    ~code:"retries-exhausted" ~addr
                    (Printf.sprintf "gave up after %d attempts: %s"
                       (attempt + 1)
                       (Cloud.error_to_string err))
                  :: !diagnostics
              end
          | _ -> ());
          complete id (Error (Cloud.error_to_string err))
  and perform id (c : Plan.change) attempt =
    let addr = c.Plan.addr in
    match c.Plan.action with
    | Plan.Noop -> complete id (Ok ())
    | Plan.Create -> (
        match c.Plan.desired with
        | None -> complete id (Error "create without desired attributes")
        | Some desired ->
            let attrs = resolve_live desired in
            submit_logged c Journal.Op_create ~payload:attrs ~prior:None
              (Cloud.Create { rtype = c.Plan.rtype; region = c.Plan.region; attrs })
              (fun op result ->
                match result with
                | Ok cloud_attrs ->
                    let cloud_id =
                      match Smap.find_opt "id" cloud_attrs with
                      | Some (Value.Vstring s) -> s
                      | _ -> "?"
                    in
                    ok_outcome ~addr ~op ~kind:Journal.Op_create
                      ~cloud_id:(Some cloud_id) cloud_attrs;
                    state_add
                      {
                        State.addr = addr;
                        cloud_id;
                        rtype = c.Plan.rtype;
                        region = c.Plan.region;
                        attrs = cloud_attrs;
                        deps = c.Plan.deps;
                      };
                    complete id (Ok ())
                | Error err -> on_error ~id ~c ~attempt ~op ~kind:Journal.Op_create err))
    | Plan.Update changes -> (
        match (c.Plan.prior, c.Plan.desired) with
        | Some prior, Some _ ->
            let delta =
              List.fold_left
                (fun acc (ch : Plan.attr_change) ->
                  match ch.Plan.after with
                  | Some v ->
                      Smap.add ch.Plan.attr (resolve_live_value v) acc
                  | None -> acc)
                Smap.empty changes
            in
            submit_logged c Journal.Op_update ~payload:delta
              ~prior:(Some prior.State.cloud_id)
              (Cloud.Update { cloud_id = prior.State.cloud_id; attrs = delta })
              (fun op result ->
                match result with
                | Ok cloud_attrs ->
                    ok_outcome ~addr ~op ~kind:Journal.Op_update
                      ~cloud_id:(Some prior.State.cloud_id) cloud_attrs;
                    state_update_attrs addr cloud_attrs;
                    complete id (Ok ())
                | Error err -> on_error ~id ~c ~attempt ~op ~kind:Journal.Op_update err)
        | _ -> complete id (Error "update without prior state"))
    | Plan.Delete -> (
        match c.Plan.prior with
        | Some prior ->
            submit_logged c Journal.Op_delete ~payload:Smap.empty
              ~prior:(Some prior.State.cloud_id)
              (Cloud.Delete { cloud_id = prior.State.cloud_id })
              (fun op result ->
                match result with
                | Ok _ | Error (Cloud.Not_found _) ->
                    (* already gone = success for a delete *)
                    ok_outcome ~addr ~op ~kind:Journal.Op_delete
                      ~cloud_id:(Some prior.State.cloud_id) Smap.empty;
                    state_remove addr;
                    complete id (Ok ())
                | Error err -> on_error ~id ~c ~attempt ~op ~kind:Journal.Op_delete err)
        | None -> complete id (Error "delete without prior state"))
    | Plan.Replace _ -> (
        match (c.Plan.prior, c.Plan.desired) with
        | Some prior, Some desired ->
            let record_new op cloud_attrs k =
              let cloud_id =
                match Smap.find_opt "id" cloud_attrs with
                | Some (Value.Vstring s) -> s
                | _ -> "?"
              in
              ok_outcome ~addr ~op ~kind:Journal.Op_create ~cloud_id:(Some cloud_id)
                cloud_attrs;
              state_add
                {
                  State.addr = addr;
                  cloud_id;
                  rtype = c.Plan.rtype;
                  region = c.Plan.region;
                  attrs = cloud_attrs;
                  deps = c.Plan.deps;
                };
              k ()
            in
            if c.Plan.cbd then
              (* lifecycle create_before_destroy: the replacement comes
                 up first, then the old resource is destroyed — no
                 availability gap *)
              let attrs = resolve_live desired in
              submit_logged c Journal.Op_create ~payload:attrs ~prior:None
                (Cloud.Create
                   { rtype = c.Plan.rtype; region = c.Plan.region; attrs })
                (fun op result ->
                  match result with
                  | Ok cloud_attrs ->
                      record_new op cloud_attrs (fun () ->
                          submit_logged c Journal.Op_delete ~payload:Smap.empty
                            ~prior:(Some prior.State.cloud_id)
                            (Cloud.Delete { cloud_id = prior.State.cloud_id })
                            (fun op result ->
                              match result with
                              | Ok _ | Error (Cloud.Not_found _) ->
                                  ok_outcome ~addr ~op ~kind:Journal.Op_delete
                                    ~cloud_id:(Some prior.State.cloud_id)
                                    Smap.empty;
                                  complete id (Ok ())
                              | Error err ->
                                  on_error ~id ~c ~attempt ~op ~kind:Journal.Op_delete err))
                  | Error err -> on_error ~id ~c ~attempt ~op ~kind:Journal.Op_create err)
            else
              submit_logged c Journal.Op_delete ~payload:Smap.empty
                ~prior:(Some prior.State.cloud_id)
                (Cloud.Delete { cloud_id = prior.State.cloud_id })
                (fun op result ->
                  match result with
                  | Ok _ | Error (Cloud.Not_found _) ->
                      ok_outcome ~addr ~op ~kind:Journal.Op_delete
                        ~cloud_id:(Some prior.State.cloud_id) Smap.empty;
                      state_remove addr;
                      let attrs = resolve_live desired in
                      submit_logged c Journal.Op_create ~payload:attrs ~prior:None
                        (Cloud.Create
                           { rtype = c.Plan.rtype; region = c.Plan.region; attrs })
                        (fun op result ->
                          match result with
                          | Ok cloud_attrs ->
                              record_new op cloud_attrs (fun () ->
                                  complete id (Ok ()))
                          | Error err ->
                              on_error ~id ~c ~attempt ~op ~kind:Journal.Op_create err)
                  | Error err -> on_error ~id ~c ~attempt ~op ~kind:Journal.Op_delete err)
        | _ -> complete id (Error "replace without prior state"))

  and schedule_retry id c attempt delay =
    (* keep the op slot while backing off (like real engines do); the
       wake-up is inert if the engine died in the meantime *)
    Cloud.schedule cloud ~delay (fun () ->
        if not !crashed then perform id c attempt)

  and book acc k =
    (* reserve [k] write slots, returning the longest wait booked;
       recursive sibling of [pump] rather than a per-admission inner
       closure (the hot path allocates nothing here) *)
    if k = 0 then acc
    else
      book
        (Float.max acc (Rate_limiter.reserve client_limiter ~now:(Cloud.now cloud)))
        (k - 1)

  and pump () =
    let can_start =
      match config.parallelism with
      | Some cap -> !in_flight < cap
      | None -> true
    in
    if can_start then
      match take_ready () with
      | None -> ()
      | Some id ->
          let c = change_of id in
          incr in_flight;
          if config.client_pacing then begin
            (* §3.3: do not fire writes the provider would throttle.
               [reserve] books a token slot (possibly in the future), so
               queued ops space themselves at the provider's refill rate
               instead of re-bursting together. *)
            let writes_needed =
              match c.Plan.action with
              | Plan.Noop -> 0
              | Plan.Replace _ -> 2  (* delete + create *)
              | Plan.Create | Plan.Update _ | Plan.Delete -> 1
            in
            let wait = book 0. writes_needed in
            if wait > 0. then
              (* small guard so the op lands strictly after the refill
                 boundary (float-exact arrivals would race the bucket) *)
              Cloud.schedule cloud ~delay:(wait +. 0.05) (fun () ->
                  if not !crashed then begin
                    perform id c 0;
                    pump ()
                  end)
            else begin
              perform id c 0;
              pump ()
            end
          end
          else begin
            perform id c 0;
            pump ()
          end
  in

  pump_ref := pump;

  (* seed the ready set, in plan (insertion) order *)
  for id = 0 to node_count - 1 do
    if remaining_deps.(id) = 0 then add_ready id
  done;
  pump ();
  (* drive the simulation, pumping after every event; withheld
     group-commit calls release (behind their barrier) before each
     step so the event clock never advances past them *)
  let rec drive () =
    release_deferred ();
    if Cloud.step cloud then begin
      pump ();
      drive ()
    end
  in
  drive ();

  let finished_at = Cloud.now cloud in
  journal_append (Journal.Run_finished { time = finished_at });
  let skipped = ref [] in
  for id = node_count - 1 downto 0 do
    if status.(id) = Skipped then skipped := addr_of id :: !skipped
  done;
  let skipped = !skipped in
  let throttled =
    snd (Cloud.write_throttle_stats cloud)
    - base_write_throttles
    + snd (Cloud.read_throttle_stats cloud)
    - base_read_throttles
  in
  (* executor-owned per-stage counters; the cloud itself counted
     api_calls/throttled onto the active span as calls were submitted *)
  Trace.count trace "retries" !retries;
  Trace.count trace "refresh_reads" refresh_result.reads;
  Trace.count trace "sched_picks" !picks;
  Trace.count trace "applied" (List.length !applied);
  Trace.count trace "failed" (List.length !failed);
  Trace.count trace "skipped" (List.length skipped);
  {
    engine = config.name;
    started_at;
    finished_at;
    makespan = finished_at -. started_at;
    refresh_reads = refresh_result.reads;
    refresh_duration = refresh_result.rduration;
    api_calls = Cloud.api_call_count cloud - base_api_calls;
    throttled;
    retries = !retries;
    applied = List.rev !applied;
    failed = List.rev !failed;
    skipped;
    state = final_state ();
    sched_picks = !picks;
    sched_time = sched_time.(0);
    peak_ready = peak_ready ();
    diagnostics = List.rev !diagnostics;
  }
