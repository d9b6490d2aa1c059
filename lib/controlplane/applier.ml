(** Callback-style deployment execution for the control plane.

    {!Cloudless_deploy.Executor.apply} is a run-to-completion engine:
    it pumps its ready set and then {e drives the simulated cloud to
    idle} before returning.  That is the right shape for a one-shot
    CLI verb, but it makes true multi-tenant concurrency impossible —
    the first tenant's apply would fast-forward the simulated clock
    past everyone else.  The control plane instead owns the single
    event loop and executes every unit of work through this module:
    the same plan-walk, write-ahead journaling and retry semantics as
    the executor, but purely callback-shaped — [apply] returns
    immediately after seeding its ready set, progress rides on cloud
    callbacks, and completion is announced through [on_done].  Many
    appliers (one per in-flight unit of work, across tenants) then
    interleave on one shared simulated timeline.

    Differences from the executor, all deliberate:

    - no internal [run_until_idle]/[step] calls anywhere;
    - FIFO admission with an optional parallelism cap (critical-path
      priority matters at 10k-resource scale, not at the per-request
      sizes a service multiplexes — and it keeps this module small);
    - deterministic exponential backoff; optional jitter draws from a
      private PRNG seeded from a hash of the engine name, never from
      the cloud's PRNG — the control plane's metrics snapshots are
      asserted byte-identical across runs, and stay so because the
      jitter stream depends only on the tenant, not on timing;
    - an optional circuit {!Cloudless_deploy.Breaker}: writes acquire
      the (kind, rtype) cell before the intent is journaled, fast-fail
      with {!Cloudless_deploy.Breaker.open_reason} while the cell is
      Open, and stop burning retry budget the moment a failure trips
      the cell — the owner parks the work and re-admits it around the
      breaker's half-open probe;
    - the crash gate is injected ([gate]): the control plane counts
      journaled writes {e across all tenants} so a single
      [Crash_after k] kills the whole service process mid-work;
    - every callback first checks [alive]: once the service crashes,
      in-flight cloud operations complete with nobody listening,
      exactly like a killed process (the executor's [crashed] flag,
      hoisted to service scope). *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Breaker = Cloudless_deploy.Breaker
module Drift = Cloudless_drift.Drift
module Prng = Cloudless_sim.Prng

type config = {
  engine : string;  (** activity-log actor; also the journal's engine name *)
  parallelism : int option;
  max_retries : int;
  backoff_base : float;
  jitter : bool;
      (** multiply each backoff by 0.8–1.2 drawn from a private PRNG
          seeded from the engine name (run-to-run deterministic) *)
}

let default_config engine =
  { engine; parallelism = None; max_retries = 12; backoff_base = 2.;
    jitter = false }

(* Breaker cells are keyed by the management-API verb. *)
let breaker_kind = function
  | Journal.Op_create -> "create"
  | Journal.Op_update -> "update"
  | Journal.Op_delete -> "delete"

(* ------------------------------------------------------------------ *)
(* Asynchronous refresh                                                *)
(* ------------------------------------------------------------------ *)

type refresh_outcome = {
  rstate : State.t;
  reads : int;
  missing : Addr.t list;  (** in state but gone from the cloud *)
}

(** Re-read cloud attributes for tracked resources ([addrs] scopes the
    read set; absent = full refresh).  [count_api] is called once per
    submitted call so the owner can attribute API load per tenant. *)
let refresh (cloud : Cloud.t) ~engine ~(state : State.t) ?addrs
    ?(parallelism = 10) ~alive ~count_api ~on_done () =
  let targets =
    match addrs with
    | None -> State.resources state
    | Some set ->
        List.filter
          (fun (r : State.resource_state) -> Addr.Set.mem r.State.addr set)
          (State.resources state)
  in
  if targets = [] then on_done { rstate = state; reads = 0; missing = [] }
  else begin
    let actor = Activity_log.Iac_engine engine in
    let state_ref = ref state in
    let missing = ref [] in
    let reads = ref 0 in
    let queue = Queue.create () in
    List.iter (fun r -> Queue.add r queue) targets;
    let in_flight = ref 0 in
    let settled = ref 0 in
    let total = List.length targets in
    let rec pump () =
      if alive () && (not (Queue.is_empty queue)) && !in_flight < parallelism
      then begin
        let r = Queue.pop queue in
        incr in_flight;
        incr reads;
        count_api 1;
        Cloud.submit cloud ~actor
          (Cloud.Read { cloud_id = r.State.cloud_id })
          (fun result ->
            if alive () then begin
              decr in_flight;
              (match result with
              | Ok attrs ->
                  incr settled;
                  state_ref := State.update_attrs !state_ref r.State.addr attrs
              | Error (Cloud.Not_found _) ->
                  incr settled;
                  missing := r.State.addr :: !missing
              | Error (Cloud.Throttled _) -> Queue.add r queue
              | Error _ -> incr settled);
              if !settled = total then
                on_done
                  {
                    rstate = !state_ref;
                    reads = !reads;
                    missing = List.rev !missing;
                  }
              else pump ()
            end);
        pump ()
      end
    in
    pump ()
  end

(* ------------------------------------------------------------------ *)
(* Asynchronous apply                                                  *)
(* ------------------------------------------------------------------ *)

type outcome = {
  astate : State.t;  (** state after every successful operation *)
  applied : Addr.t list;
  failed : (Addr.t * string) list;
  skipped : Addr.t list;
  writes : int;  (** cloud write calls journaled (incl. retries) *)
}

(** Walk [graph] (a plan's {!Plan.exec_graph}) over [cloud], calling
    [on_done] when every change has settled.  [gate] runs after each
    intent is journaled and before the cloud call leaves the engine —
    raising from it models process death with the intent durable (the
    executor's crash semantics, supplied by the service so the write
    counter spans tenants).

    The walk is the executor's: node ids are plan order, [status] and
    [remaining_deps] are arrays indexed by id, and [xrdeps] rows are in
    ascending-address order, so the FIFO ready queue fills exactly as
    an [Addr.Set]-keyed walk would.  A unit of work thus costs O(its
    plan) however long the deployment's journal has grown: the op
    counter seeds from {!Journal.last_op}. *)
let apply (cloud : Cloud.t) ~(config : config) ~(state : State.t)
    ~(graph : Plan.exec_graph) ?journal ?breaker ~gate ~alive ~count_api
    ~on_done () =
  let actor = Activity_log.Iac_engine config.engine in
  let journal_append entry =
    match journal with Some j -> Journal.append j entry | None -> ()
  in
  let ops_started =
    ref
      (match journal with
      | Some j -> Journal.last_op j
      | None -> 0)
  in
  let nodes = graph.Plan.xchanges and rdeps = graph.Plan.xrdeps in
  let node_count = Plan.exec_size graph in
  journal_append
    (Journal.Run_started
       { engine = config.engine; changes = node_count; time = Cloud.now cloud });
  let finish_run state_final applied failed skipped writes =
    journal_append (Journal.Run_finished { time = Cloud.now cloud });
    on_done
      {
        astate = state_final;
        applied = List.rev applied;
        failed = List.rev failed;
        skipped;
        writes;
      }
  in
  if node_count = 0 then finish_run state [] [] [] 0
  else begin
    let state_ref = ref state in
    let status = Array.make node_count Executor.Pending in
    let remaining_deps = Array.map Array.length graph.Plan.xdeps in
    let ready = Queue.create () in
    let in_flight = ref 0 in
    let settled = ref 0 in
    let writes = ref 0 in
    let applied = ref [] in
    let failed = ref [] in
    let jitter_prng =
      (* seeded from the engine name alone, so the stream is the same
         on every run and every resume — timing never feeds it *)
      if config.jitter then
        Some (Prng.create (Hashtbl.hash config.engine land 0x3FFFFFFF))
      else None
    in
    let backoff attempt =
      let b = config.backoff_base *. Float.pow 2. (float_of_int attempt) in
      match jitter_prng with
      | Some p -> b *. Prng.float_range p 0.8 1.2
      | None -> b
    in
    let finish () =
      (* plan order *)
      let skipped = ref [] in
      for id = node_count - 1 downto 0 do
        if status.(id) = Executor.Skipped then
          skipped := nodes.(id).Plan.addr :: !skipped
      done;
      finish_run !state_ref !applied !failed !skipped !writes
    in
    let rec mark_skipped id =
      if status.(id) = Executor.Pending then begin
        status.(id) <- Executor.Skipped;
        incr settled;
        Array.iter mark_skipped rdeps.(id)
      end
    in
    let pump_ref = ref (fun () -> ()) in
    let complete id result =
      decr in_flight;
      incr settled;
      (match result with
      | Ok () ->
          status.(id) <- Executor.Done;
          applied := nodes.(id).Plan.addr :: !applied;
          Array.iter
            (fun d ->
              let n = remaining_deps.(d) - 1 in
              remaining_deps.(d) <- n;
              if n = 0 && status.(d) = Executor.Pending then Queue.add d ready)
            rdeps.(id)
      | Error reason ->
          status.(id) <- Executor.Failed reason;
          failed := (nodes.(id).Plan.addr, reason) :: !failed;
          Array.iter mark_skipped rdeps.(id));
      if !settled = node_count then finish () else !pump_ref ()
    in
    let rec perform id attempt =
      let c = nodes.(id) in
      let addr = c.Plan.addr in
      let submit_logged kind ~payload ~prior op handler =
        let bkind = breaker_kind kind in
        let issue () =
          incr ops_started;
          incr writes;
          count_api 1;
          let op_id = !ops_started in
          journal_append
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
                 log_cursor = Activity_log.length (Cloud.log cloud);
                 itime = Cloud.now cloud;
               });
          gate ();
          (match breaker with
          | Some b -> Breaker.note_issue b ~kind:bkind ~rtype:c.Plan.rtype
          | None -> ());
          Cloud.submit cloud ~actor op (fun result ->
              (match (breaker, result) with
              | Some b, Ok _ ->
                  Breaker.success b ~now:(Cloud.now cloud) ~kind:bkind
                    ~rtype:c.Plan.rtype
              | ( Some b,
                  Error
                    ( Cloud.Throttled _ | Cloud.Transient _
                    | Cloud.Quota_exceeded _ ) ) ->
                  Breaker.failure b ~now:(Cloud.now cloud) ~kind:bkind
                    ~rtype:c.Plan.rtype
              | _ -> ());
              if alive () then handler op_id result)
        in
        match breaker with
        | None -> issue ()
        | Some b -> (
            match
              Breaker.acquire b ~now:(Cloud.now cloud) ~kind:bkind
                ~rtype:c.Plan.rtype
            with
            | `Proceed -> issue ()
            | `Reject remaining ->
                (* fast-fail: no intent journaled, no cloud call, no
                   retry budget burned — the owner parks this work *)
                complete id
                  (Error
                     (Breaker.open_reason ~kind:bkind ~rtype:c.Plan.rtype
                        remaining)))
      in
      let ok_outcome ~op ~kind ~cloud_id attrs =
        journal_append
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
      in
      let on_error ~op ~kind err =
        let record retried =
          journal_append
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
        let retry_or_park ~delay =
          (* the failure just recorded may have tripped the breaker:
             checking after [record] means we stop burning the retry
             budget the moment the cell opens *)
          let bkind = breaker_kind kind in
          match breaker with
          | Some b
            when Breaker.state b ~kind:bkind ~rtype:c.Plan.rtype
                 = Breaker.Open ->
              let remaining =
                match Breaker.next_probe_at b with
                | Some at -> at -. Cloud.now cloud
                | None -> 0.
              in
              complete id
                (Error
                   (Breaker.open_reason ~kind:bkind ~rtype:c.Plan.rtype
                      remaining))
          | _ ->
              Cloud.schedule cloud ~delay (fun () ->
                  if alive () then perform id (attempt + 1))
        in
        match err with
        | Cloud.Throttled after when attempt < config.max_retries ->
            record true;
            retry_or_park ~delay:(Float.max (after +. 0.1) (backoff attempt))
        | Cloud.Transient _ when attempt < config.max_retries ->
            record true;
            retry_or_park ~delay:(backoff attempt)
        | Cloud.Quota_exceeded _
          when breaker <> None && attempt < config.max_retries ->
            (* under a breaker a quota rejection is a parkable fault
               (quota-cut episodes lift), not a permanent failure *)
            record true;
            retry_or_park ~delay:(backoff attempt)
        | err ->
            record false;
            complete id (Error (Cloud.error_to_string err))
      in
      match c.Plan.action with
      | Plan.Noop -> complete id (Ok ())
      | Plan.Create -> (
          match c.Plan.desired with
          | None -> complete id (Error "create without desired attributes")
          | Some desired ->
              let attrs = Executor.resolve_attrs !state_ref desired in
              submit_logged Journal.Op_create ~payload:attrs ~prior:None
                (Cloud.Create
                   { rtype = c.Plan.rtype; region = c.Plan.region; attrs })
                (fun op result ->
                  match result with
                  | Ok cloud_attrs ->
                      let cloud_id =
                        match Smap.find_opt "id" cloud_attrs with
                        | Some (Value.Vstring s) -> s
                        | _ -> "?"
                      in
                      ok_outcome ~op ~kind:Journal.Op_create
                        ~cloud_id:(Some cloud_id) cloud_attrs;
                      state_ref :=
                        State.add !state_ref
                          {
                            State.addr = addr;
                            cloud_id;
                            rtype = c.Plan.rtype;
                            region = c.Plan.region;
                            attrs = cloud_attrs;
                            deps = c.Plan.deps;
                          };
                      complete id (Ok ())
                  | Error err -> on_error ~op ~kind:Journal.Op_create err))
      | Plan.Update changes -> (
          match c.Plan.prior with
          | Some prior ->
              let delta =
                List.fold_left
                  (fun acc (ch : Plan.attr_change) ->
                    match ch.Plan.after with
                    | Some v ->
                        Smap.add ch.Plan.attr
                          (Executor.resolve_value !state_ref v) acc
                    | None -> acc)
                  Smap.empty changes
              in
              submit_logged Journal.Op_update ~payload:delta
                ~prior:(Some prior.State.cloud_id)
                (Cloud.Update { cloud_id = prior.State.cloud_id; attrs = delta })
                (fun op result ->
                  match result with
                  | Ok cloud_attrs ->
                      ok_outcome ~op ~kind:Journal.Op_update
                        ~cloud_id:(Some prior.State.cloud_id) cloud_attrs;
                      state_ref := State.update_attrs !state_ref addr cloud_attrs;
                      complete id (Ok ())
                  | Error err -> on_error ~op ~kind:Journal.Op_update err)
          | None -> complete id (Error "update without prior state"))
      | Plan.Delete -> (
          match c.Plan.prior with
          | Some prior ->
              submit_logged Journal.Op_delete ~payload:Smap.empty
                ~prior:(Some prior.State.cloud_id)
                (Cloud.Delete { cloud_id = prior.State.cloud_id })
                (fun op result ->
                  match result with
                  | Ok _ | Error (Cloud.Not_found _) ->
                      ok_outcome ~op ~kind:Journal.Op_delete
                        ~cloud_id:(Some prior.State.cloud_id) Smap.empty;
                      state_ref := State.remove !state_ref addr;
                      complete id (Ok ())
                  | Error err -> on_error ~op ~kind:Journal.Op_delete err)
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
                ok_outcome ~op ~kind:Journal.Op_create
                  ~cloud_id:(Some cloud_id) cloud_attrs;
                state_ref :=
                  State.add !state_ref
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
                let attrs = Executor.resolve_attrs !state_ref desired in
                submit_logged Journal.Op_create ~payload:attrs ~prior:None
                  (Cloud.Create
                     { rtype = c.Plan.rtype; region = c.Plan.region; attrs })
                  (fun op result ->
                    match result with
                    | Ok cloud_attrs ->
                        record_new op cloud_attrs (fun () ->
                            submit_logged Journal.Op_delete ~payload:Smap.empty
                              ~prior:(Some prior.State.cloud_id)
                              (Cloud.Delete { cloud_id = prior.State.cloud_id })
                              (fun op result ->
                                match result with
                                | Ok _ | Error (Cloud.Not_found _) ->
                                    ok_outcome ~op ~kind:Journal.Op_delete
                                      ~cloud_id:(Some prior.State.cloud_id)
                                      Smap.empty;
                                    complete id (Ok ())
                                | Error err ->
                                    on_error ~op ~kind:Journal.Op_delete err))
                    | Error err -> on_error ~op ~kind:Journal.Op_create err)
              else
                submit_logged Journal.Op_delete ~payload:Smap.empty
                  ~prior:(Some prior.State.cloud_id)
                  (Cloud.Delete { cloud_id = prior.State.cloud_id })
                  (fun op result ->
                    match result with
                    | Ok _ | Error (Cloud.Not_found _) ->
                        ok_outcome ~op ~kind:Journal.Op_delete
                          ~cloud_id:(Some prior.State.cloud_id) Smap.empty;
                        state_ref := State.remove !state_ref addr;
                        let attrs = Executor.resolve_attrs !state_ref desired in
                        submit_logged Journal.Op_create ~payload:attrs
                          ~prior:None
                          (Cloud.Create
                             {
                               rtype = c.Plan.rtype;
                               region = c.Plan.region;
                               attrs;
                             })
                          (fun op result ->
                            match result with
                            | Ok cloud_attrs ->
                                record_new op cloud_attrs (fun () ->
                                    complete id (Ok ()))
                            | Error err ->
                                on_error ~op ~kind:Journal.Op_create err)
                    | Error err -> on_error ~op ~kind:Journal.Op_delete err)
          | _ -> complete id (Error "replace without prior state"))
    and pump () =
      let can_start () =
        match config.parallelism with
        | Some cap -> !in_flight < cap
        | None -> true
      in
      if alive () && can_start () && not (Queue.is_empty ready) then begin
        let id = Queue.pop ready in
        incr in_flight;
        perform id 0;
        pump ()
      end
    in
    pump_ref := pump;
    Array.iteri (fun id n -> if n = 0 then Queue.add id ready) remaining_deps;
    pump ()
  end

(* ------------------------------------------------------------------ *)
(* Asynchronous drift scan (the Terraform-style baseline's detector)   *)
(* ------------------------------------------------------------------ *)

(** Read every tracked resource and compare with state — the
    driftctl-style sweep, shaped for the service event loop
    ({!Cloudless_drift.Drift.Scanner.scan} drives the cloud to idle
    internally, which would freeze every other tenant).  O(state)
    management-API reads per sweep; that cost is the baseline's story
    in E14. *)
let scan (cloud : Cloud.t) ~engine ~(state : State.t) ~alive ~count_api
    ~on_done () =
  let targets = State.resources state in
  if targets = [] then on_done ([], 0)
  else begin
    let actor = Activity_log.Iac_engine engine in
    let events = ref [] in
    let reads = ref 0 in
    let settled = ref 0 in
    let total = List.length targets in
    let comparable attrs = Smap.filter (fun k _ -> k <> "arn") attrs in
    let rec read_resource (r : State.resource_state) =
      incr reads;
      count_api 1;
      Cloud.submit cloud ~actor
        (Cloud.Read { cloud_id = r.State.cloud_id })
        (fun result ->
          if alive () then begin
            match result with
            | Ok actual ->
                Smap.iter
                  (fun attr expected ->
                    match Smap.find_opt attr actual with
                    | Some actual_v when not (Value.equal expected actual_v) ->
                        events :=
                          {
                            Drift.addr = Some r.State.addr;
                            cloud_id = r.State.cloud_id;
                            kind =
                              Drift.Attr_drift
                                { attr; expected; actual = actual_v };
                            detected_at = Cloud.now cloud;
                            occurred_at = None;
                          }
                          :: !events
                    | _ -> ())
                  (comparable r.State.attrs);
                incr settled;
                if !settled = total then on_done (List.rev !events, !reads)
            | Error (Cloud.Not_found _) ->
                events :=
                  {
                    Drift.addr = Some r.State.addr;
                    cloud_id = r.State.cloud_id;
                    kind = Drift.Deleted_oob;
                    detected_at = Cloud.now cloud;
                    occurred_at = None;
                  }
                  :: !events;
                incr settled;
                if !settled = total then on_done (List.rev !events, !reads)
            | Error (Cloud.Throttled after) ->
                Cloud.schedule cloud ~delay:(after +. 0.1) (fun () ->
                    if alive () then read_resource r)
            | Error _ ->
                incr settled;
                if !settled = total then on_done (List.rev !events, !reads)
          end)
    in
    List.iter read_resource targets
  end
