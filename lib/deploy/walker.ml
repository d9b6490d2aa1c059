(** The plan walker: the one place a plan reaches the cloud's write
    API (§3.3).

    Callback-shaped: {!apply} seeds its ready set and returns, progress
    rides on cloud callbacks, and completion is announced through
    [on_done].  No call here steps the simulator, so one walker serves
    two drivers: {!Executor.apply} (start the refresh, then the walk,
    and step the cloud until idle — a one-shot CLI verb) and the
    control plane's shards (many walks, one per in-flight unit of work
    across tenants, interleaved on one shared event loop).

    Everything the two drivers do differently is an input they already
    hold:

    - ready order comes from [config.policy]: FIFO is a plain queue,
      critical-path a max-heap on remaining-longest-path priority;
    - pacing is the [pacer] bucket the caller hands in, if any: one per
      apply for {!Executor.apply} under [config.client_pacing], one per
      fleet for the shards' unbounded walks, so walks that share a
      provider's write budget book from one bucket;
    - crash injection is the [gate]/[alive] pair: [gate] runs after
      each intent is journaled and before the cloud call leaves the
      engine (raising from it models process death with the intent
      durable), and every callback first checks [alive], so a dead
      engine's in-flight calls complete with nobody listening;
    - group commit is keyed off {!Journal.mode};
    - backoff jitter draws from the [jitter] PRNG the caller passes in
      (none: plain exponential backoff);
    - with a [breaker], writes acquire their (kind, rtype) cell first,
      and a change fails as soon as its cell is Open. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log
module Rate_limiter = Cloudless_sim.Rate_limiter
module Service_model = Cloudless_sim.Service_model
module Prng = Cloudless_sim.Prng
module Pq = Cloudless_sim.Pqueue
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Diagnostic = Cloudless_error.Diagnostic
module Plan = Cloudless_plan.Plan
module Dag = Cloudless_graph.Dag

type schedule_policy = Fifo | Critical_path
type scheduler = Sched_heap | Sched_list
type refresh_mode = Refresh_none | Refresh_full | Refresh_scoped

type config = {
  name : string;
  parallelism : int option;
  policy : schedule_policy;
  client_pacing : bool;
  max_retries : int;
  backoff_base : float;
  refresh : refresh_mode;
}

type failure = {
  faddr : Addr.t;
  reason : string;
  blocked : (string * string) option;
}

(* ------------------------------------------------------------------ *)
(* Unknown resolution at apply time                                    *)
(* ------------------------------------------------------------------ *)

(* A desired attribute that referenced another resource's computed
   attribute was planned as [Vunknown "addr.attr"]; once the dependency
   is applied its real value is in state.  The walk memoizes the split
   of each payload: every instance of a fleet carries the same handful
   of references, and re-parsing the address per change was a
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

let rec resolve_value split find (v : Value.t) : Value.t =
  match v with
  | Value.Vunknown p -> (
      match split p with
      | None -> Value.Vnull
      | Some (addr, attr) -> (
          match find addr with
          | Some rs -> (
              match Smap.find_opt attr (State.attrs rs) with
              | Some v -> v
              | None -> Value.Vnull)
          | None -> Value.Vnull))
  | Value.Vlist vs ->
      (* Preserve sharing: almost no attribute holds an unknown at apply
         time, and rebuilding every list/map on the hot path costs real
         minor-heap words at the million-resource scale. *)
      let vs' = List.map (resolve_value split find) vs in
      if List.for_all2 (fun a b -> a == b) vs vs' then v else Value.Vlist vs'
  | Value.Vmap m ->
      let m' = resolve_attrs split find m in
      if m' == m then v else Value.Vmap m'
  | v -> v

and resolve_attrs split find attrs =
  Smap.fold
    (fun k sub acc ->
      let sub' = resolve_value split find sub in
      if sub' == sub then acc else Smap.add k sub' acc)
    attrs attrs

(* Expected simulated duration of a change under the service model —
   the weight of the critical-path priority. *)
let change_duration (c : Plan.change) =
  match c.Plan.action with
  | Plan.Create -> Service_model.expected c.Plan.rtype Service_model.Op_create
  | Plan.Update _ -> Service_model.expected c.Plan.rtype Service_model.Op_update
  | Plan.Replace _ ->
      Service_model.expected c.Plan.rtype Service_model.Op_delete
      +. Service_model.expected c.Plan.rtype Service_model.Op_create
  | Plan.Delete -> Service_model.expected c.Plan.rtype Service_model.Op_delete
  | Plan.Noop -> 0.

(* ------------------------------------------------------------------ *)
(* Refresh                                                             *)
(* ------------------------------------------------------------------ *)

type refresh_outcome = {
  rstate : State.t;
  reads : int;
  missing : Addr.t list;
}

(* A FIFO work list, ten reads in flight (Terraform's default
   -parallelism); throttled reads re-enter at the back of a [Queue.t],
   so both operations stay O(1) under sustained throttling. *)
let refresh (cloud : Cloud.t) ~engine ~(state : State.t) ?addrs ~alive
    ~count_api ~on_done () =
  let targets =
    match addrs with
    | None -> State.resources state
    | Some set ->
        (* ascending address order, as [State.resources]: O(scope) *)
        List.filter_map (State.find_opt state) (Addr.Set.elements set)
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
      if alive () && (not (Queue.is_empty queue)) && !in_flight < 10 then begin
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
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  astate : State.t;
  applied : Addr.t list;
  failed : failure list;
  skipped : Addr.t list;
  writes : int;
  retries : int;
  picks : int;
  sched_time : float;
  peak_ready : int;
  diagnostics : Diagnostic.t list Lazy.t;
}

type status = Pending | Done | Failed | Skipped

(* What a change does after one of its cloud ops succeeds. *)
type next =
  | Settle
  | Drop_row  (** a delete: drop the state row, then settle *)
  | Delete_old of State.resource_state
      (** create_before_destroy: the replacement is up, delete the old *)
  | Create_new of Value.t Smap.t
      (** destroy-then-create: the old is gone, create the replacement *)

(* Breaker cells are keyed by the management-API verb. *)
let breaker_kind = function
  | Journal.Op_create -> "create"
  | Journal.Op_update -> "update"
  | Journal.Op_delete -> "delete"

let now_mono () = Unix.gettimeofday ()

(* The ready set, as (add, take, is_empty, peak).  Every implementation
   yields the same pick order:

   - [Fifo] pops in insertion order (oldest first);
   - [Critical_path] pops the max priority, ties going to the most
     recently inserted node (what the historical newest-first list
     fold with a strict [>] yielded).

   [Sched_list] is the historical O(n)-per-pick list scan, kept as
   the E11 reference.  No skip ever reaches a ready node — a ready
   node's dependencies all succeeded — so no implementation needs
   keyed removal. *)
let ready_set sched policy priority =
  match (sched, policy) with
  | Sched_heap, Fifo ->
      let q = Queue.create () and peak = ref 0 in
      ( (fun id ->
          Queue.add id q;
          if Queue.length q > !peak then peak := Queue.length q),
        (fun () -> if Queue.is_empty q then None else Some (Queue.pop q)),
        (fun () -> Queue.is_empty q),
        fun () -> !peak )
  | Sched_heap, Critical_path ->
      let q : (int, int) Pq.t = Pq.create Pq.Max_first in
      ( (fun id -> Pq.push q ~prio:(priority id) ~key:id id),
        (fun () -> if Pq.is_empty q then None else Some (Pq.take q)),
        (fun () -> Pq.is_empty q),
        fun () -> Pq.peak_length q )
  | Sched_list, _ ->
      let ready : int list ref = ref [] in
      let count = ref 0 and peak = ref 0 in
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
              match policy with
              | Fifo ->
                  (* FIFO = oldest first; list is newest-first *)
                  List.nth !ready (List.length !ready - 1)
              | Critical_path ->
                  List.fold_left
                    (fun best id ->
                      if priority id > priority best then id else best)
                    (List.hd !ready) !ready
            in
            ready := List.filter (fun id -> id <> pick) !ready;
            decr count;
            Some pick
      in
      (add, take, (fun () -> !ready = []), fun () -> !peak)

(** Walk [graph] over [cloud]; see the module doc for the inputs.  Op
    ids continue from {!Journal.last_op}, never from a scan of the
    journal, so a walk costs O(graph) however long the deployment's
    history has grown. *)
let apply (cloud : Cloud.t) ~(config : config) ~(state : State.t)
    ~(graph : Plan.change Dag.t) ?(sched = Sched_heap) ?jitter ?journal
    ?breaker ?pacer ~gate ~alive ~count_api ~on_done () =
  (* a FIFO walk of a cyclic graph would start its acyclic part and
     then stall, so every policy checks first *)
  Dag.check_acyclic graph;
  let actor = Activity_log.Iac_engine config.name in
  (* the walk's closures capture these arrays, never [graph], so a walk
     in flight does not keep the graph's intern table alive *)
  let nodes = Dag.payloads graph and rdeps = Dag.rdeps graph in
  let node_count = Array.length nodes in
  (match journal with
  | Some j ->
      Journal.append j
        (Journal.Run_started
           {
             engine = config.name;
             changes = node_count;
             time = Cloud.now cloud;
           })
  | None -> ());
  let ops_started =
    ref (match journal with Some j -> Journal.last_op j | None -> 0)
  in
  (* Writes land in a hash overlay over the (immutable) input state,
     sized by the plan; the outcome state is materialized once, when
     the walk settles.  Folding [State.add] per write costs an O(log n)
     tree-path copy each, where the overlay pays a few words per write
     and, for a green-field apply, one O(n) bulk tree build (see
     {!Amap.of_sorted_array}).  [state_muts] counts every write a
     per-write fold would have made, so the serial is the fold's.  A
     walk that wrote nothing hands back its input state itself: the
     shard's plan memo keys on that identity. *)
  let overlay : (Addr.t, State.resource_state option) Hashtbl.t =
    Hashtbl.create (max 16 node_count)
  in
  let state_muts = ref 0 in
  let live_find addr =
    match Hashtbl.find_opt overlay addr with
    | Some entry -> entry
    | None -> State.find_opt state addr
  in
  let state_add (row : State.resource_state) =
    Hashtbl.replace overlay row.State.addr (Some row);
    incr state_muts
  in
  let state_update_attrs addr attrs =
    match live_find addr with
    | None -> ()
    | Some r ->
        Hashtbl.replace overlay addr (Some (State.with_attrs r attrs));
        incr state_muts
  in
  let state_remove addr =
    Hashtbl.replace overlay addr None;
    incr state_muts
  in
  let final_state () =
    if Hashtbl.length overlay = 0 then state
    else if State.size state = 0 then begin
      let rows =
        Hashtbl.fold
          (fun addr entry acc ->
            match entry with Some r -> (addr, r) :: acc | None -> acc)
          overlay []
        |> Array.of_list
      in
      Array.sort (fun (a, _) (b, _) -> Addr.compare a b) rows;
      State.of_sorted_rows ~outputs:(State.outputs state)
        ~serial:(State.serial state + !state_muts)
        rows
    end
    else
      let st =
        Hashtbl.fold
          (fun addr entry acc ->
            match entry with
            | Some r -> State.add acc r
            | None -> State.remove acc addr)
          overlay state
      in
      State.with_serial st (State.serial state + !state_muts)
  in
  let split_cache : (string, (Addr.t * string) option) Hashtbl.t =
    Hashtbl.create 8
  in
  let split p =
    match Hashtbl.find_opt split_cache p with
    | Some r -> r
    | None ->
        let r = split_unknown p in
        Hashtbl.add split_cache p r;
        r
  in
  let resolve_live attrs = resolve_attrs split live_find attrs in
  let resolve_live_value v = resolve_value split live_find v in
  (* Group commit ([Journal.Group k]): cloud calls are withheld while
     their intents accumulate in the journal's batch, then released
     together right after one {!Journal.barrier} — the write-ahead
     invariant (no call issued whose intent is not durable) holds
     batch-wise.  Release fires at k withheld calls and at the end of
     every entry into the walk (the seeding call, each cloud callback
     and each timer), so no call is withheld across a simulator step:
     completions are scheduled at the instant the WAL path would use. *)
  let deferred : (unit -> unit) Queue.t = Queue.create () in
  let group =
    match journal with
    | Some j -> (
        match Journal.mode j with
        | Journal.Group k -> Some (j, k)
        | Journal.Wal -> None)
    | None -> None
  in
  let release () =
    match group with
    | Some (j, _) when not (Queue.is_empty deferred) ->
        Journal.barrier j;
        while not (Queue.is_empty deferred) do
          (Queue.pop deferred) ()
        done
    | _ -> ()
  in
  let priority =
    match config.policy with
    | Fifo -> fun _ -> 0.
    | Critical_path ->
        let prio = Dag.priorities graph ~duration:change_duration in
        fun id -> prio.(id)
  in
  let add_ready, take_ready, ready_empty, peak_ready =
    ready_set sched config.policy priority
  in
  let status = Array.make node_count Pending in
  let remaining_deps = Array.map Array.length (Dag.deps graph) in
  let in_flight = ref 0 and settled = ref 0 in
  let writes = ref 0 and retries = ref 0 and picks = ref 0 in
  (* float-array cell, not a [float ref]: the accumulator is bumped
     twice per pick and a ref store would box each sum *)
  let sched_time = [| 0. |] in
  let applied = ref [] and failed = ref [] and diagnostics = ref [] in
  let backoff attempt =
    let b = config.backoff_base *. Float.pow 2. (float_of_int attempt) in
    match jitter with Some p -> b *. Prng.float_range p 0.8 1.2 | None -> b
  in
  let finish () =
    (* plan order *)
    let skipped = ref [] in
    for id = node_count - 1 downto 0 do
      if status.(id) = Skipped then skipped := nodes.(id).Plan.addr :: !skipped
    done;
    on_done
      {
        astate = final_state ();
        applied = List.rev !applied;
        failed = List.rev !failed;
        skipped = !skipped;
        writes = !writes;
        retries = !retries;
        picks = !picks;
        sched_time = sched_time.(0);
        peak_ready = peak_ready ();
        diagnostics = lazy (List.rev_map (fun diag -> diag ()) !diagnostics);
      }
  in
  let rec mark_skipped id =
    if status.(id) = Pending then begin
      status.(id) <- Skipped;
      incr settled;
      Array.iter mark_skipped rdeps.(id)
    end
  in
  (* A retryable error past its budget, or any failure against an open
     breaker cell, is a structured diagnostic and not just a failed
     row.  With the cell Open the give-up is an outage, not a flake:
     a distinct code lets operators tell them apart.  Rendered only on
     demand: a shard parks thousands of fast-failed changes and never
     reads them. *)
  let give_up (c : Plan.change) kind ~attempts ~outage detail =
    let addr = c.Plan.addr in
    let diag () =
      if outage then
        Diagnostic.make ~stage:Diagnostic.Deploy
          ~code:"retries-exhausted-outage" ~addr
          (Printf.sprintf
             "gave up after %d attempts with the %s/%s circuit breaker open \
              — provider outage, not flake: %s"
             attempts (breaker_kind kind) c.Plan.rtype detail)
      else
        Diagnostic.make ~stage:Diagnostic.Deploy ~code:"retries-exhausted"
          ~addr
          (Printf.sprintf "gave up after %d attempts: %s" attempts detail)
    in
    diagnostics := diag :: !diagnostics
  in
  (* A change's breaker cell, and the end of its cooldown while Open. *)
  let cell (c : Plan.change) kind = (breaker_kind kind, c.Plan.rtype) in
  let cooldown_end c kind =
    match breaker with
    | Some b ->
        let kind, rtype = cell c kind in
        Breaker.cooldown_end b ~kind ~rtype
    | None -> None
  in
  let open_reason (c : Plan.change) kind remaining =
    Breaker.open_reason ~kind:(breaker_kind kind) ~rtype:c.Plan.rtype remaining
  in
  let rec complete ?blocked id result =
    decr in_flight;
    incr settled;
    (match result with
    | Ok () ->
        status.(id) <- Done;
        applied := nodes.(id).Plan.addr :: !applied;
        Array.iter
          (fun d ->
            let n = remaining_deps.(d) - 1 in
            remaining_deps.(d) <- n;
            if n = 0 && status.(d) = Pending then add_ready d)
          rdeps.(id)
    | Error reason ->
        status.(id) <- Failed;
        failed := { faddr = nodes.(id).Plan.addr; reason; blocked } :: !failed;
        Array.iter mark_skipped rdeps.(id));
    if !settled = node_count then finish () else pump ()
  (* Every write goes through [submit]: acquire the breaker cell,
     journal the intent, pass the crash gate, issue the cloud call with
     a disarmable callback.  Outcomes are journaled at the top of each
     handler, before any state mutation, so the journal is never
     behind the in-memory record either. *)
  and submit id (c : Plan.change) attempt kind ~payload ~prior op handler =
    let rejected =
      match breaker with
      | None -> None
      | Some b -> (
          match
            Breaker.acquire b ~now:(Cloud.now cloud) ~kind:(breaker_kind kind)
              ~rtype:c.Plan.rtype
          with
          | `Proceed -> None
          | `Reject remaining -> Some remaining)
    in
    match rejected with
    | Some remaining ->
        (* fast-fail: no intent journaled, no cloud call, no retry
           budget burned — a shard parks this work *)
        let reason = open_reason c kind remaining in
        give_up c kind ~attempts:attempt ~outage:true reason;
        complete id ~blocked:(cell c kind) (Error reason)
    | None -> (
        incr ops_started;
        incr writes;
        count_api 1;
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
                   iaddr = c.Plan.addr;
                   kind;
                   rtype = c.Plan.rtype;
                   region = c.Plan.region;
                   payload;
                   prior_cloud_id = prior;
                   deps = c.Plan.deps;
                   log_cursor = Activity_log.length (Cloud.log cloud);
                   itime = Cloud.now cloud;
                 }));
        gate ();
        (match breaker with
        | Some b ->
            Breaker.note_issue b ~kind:(breaker_kind kind) ~rtype:c.Plan.rtype
        | None -> ());
        let callback result =
          (match (breaker, result) with
          | Some b, Ok _ ->
              Breaker.success b ~now:(Cloud.now cloud) ~kind:(breaker_kind kind)
                ~rtype:c.Plan.rtype
          | ( Some b,
              Error
                ( Cloud.Throttled _ | Cloud.Transient _
                | Cloud.Quota_exceeded _ ) ) ->
              Breaker.failure b ~now:(Cloud.now cloud) ~kind:(breaker_kind kind)
                ~rtype:c.Plan.rtype
          | Some b, Error (Cloud.Not_found _ | Cloud.Invalid _) ->
              (* the API answered: a probe settles, not strands, its cell *)
              Breaker.answered b ~now:(Cloud.now cloud)
                ~kind:(breaker_kind kind) ~rtype:c.Plan.rtype
          | None, _ -> ());
          if alive () then begin
            handler op_id result;
            resume ()
          end
        in
        match group with
        | None -> Cloud.submit cloud ~actor op callback
        | Some (_, k) ->
            Queue.add
              (fun () -> Cloud.submit cloud ~actor op callback)
              deferred;
            if Queue.length deferred >= k then release ())
  and outcome ~addr ~op ~kind ~ok ~cloud_id ~attrs ~retried ~reason =
    match journal with
    | None -> ()
    | Some j ->
        Journal.append j
          (Journal.Outcome
             {
               Journal.oop = op;
               oaddr = addr;
               okind = kind;
               ok;
               cloud_id;
               attrs;
               retried;
               reason;
               otime = Cloud.now cloud;
             })
  and ok_outcome (c : Plan.change) ~op ~kind ~cloud_id attrs =
    outcome ~addr:c.Plan.addr ~op ~kind ~ok:true ~cloud_id ~attrs
      ~retried:false ~reason:None
  and on_error id (c : Plan.change) attempt ~op ~kind err =
    let record retried =
      outcome ~addr:c.Plan.addr ~op ~kind ~ok:false ~cloud_id:None
        ~attrs:Smap.empty ~retried
        ~reason:(Some (Cloud.error_to_string err))
    in
    let retry ~delay =
      (* the failure just recorded may have tripped the breaker:
         checking after [record] stops burning the retry budget the
         moment the cell opens *)
      match cooldown_end c kind with
      | Some at ->
          give_up c kind ~attempts:(attempt + 1) ~outage:true
            (Cloud.error_to_string err);
          complete id ~blocked:(cell c kind)
            (Error (open_reason c kind (at -. Cloud.now cloud)))
      | None ->
          incr retries;
          (* keep the op slot while backing off (like real engines do) *)
          Cloud.schedule cloud ~delay (fun () ->
              if alive () then begin
                perform id (attempt + 1);
                resume ()
              end)
    in
    match err with
    | Cloud.Throttled after when attempt < config.max_retries ->
        record true;
        retry ~delay:(Float.max (after +. 0.1) (backoff attempt))
    | Cloud.Transient _ when attempt < config.max_retries ->
        record true;
        retry ~delay:(backoff attempt)
    | Cloud.Quota_exceeded _
      when breaker <> None && attempt < config.max_retries ->
        (* under a breaker a quota rejection is a parkable fault
           (quota-cut episodes lift), not a permanent failure *)
        record true;
        retry ~delay:(backoff attempt)
    | err ->
        record false;
        (match err with
        | Cloud.Throttled _ | Cloud.Transient _ ->
            give_up c kind ~attempts:(attempt + 1)
              ~outage:(cooldown_end c kind <> None)
              (Cloud.error_to_string err)
        | _ -> ());
        complete id (Error (Cloud.error_to_string err))
  (* A change is a short sequence of cloud ops (a Replace is two);
     [perform] starts it from the top — a retry restarts the sequence —
     and [advance] runs what follows each successful op. *)
  and perform id attempt =
    let c = nodes.(id) in
    match (c.Plan.action, c.Plan.prior, c.Plan.desired) with
    | Plan.Noop, _, _ -> complete id (Ok ())
    | Plan.Create, _, Some desired -> create id c attempt desired Settle
    | Plan.Create, _, None ->
        complete id (Error "create without desired attributes")
    | Plan.Update changes, Some prior, _ ->
        let delta =
          List.fold_left
            (fun acc (ch : Plan.attr_change) ->
              match ch.Plan.after with
              | Some v -> Smap.add ch.Plan.attr (resolve_live_value v) acc
              | None -> acc)
            Smap.empty changes
        in
        submit id c attempt Journal.Op_update ~payload:delta
          ~prior:(Some prior.State.cloud_id)
          (Cloud.Update { cloud_id = prior.State.cloud_id; attrs = delta })
          (fun op result ->
            match result with
            | Ok cloud_attrs ->
                ok_outcome c ~op ~kind:Journal.Op_update
                  ~cloud_id:(Some prior.State.cloud_id) cloud_attrs;
                state_update_attrs c.Plan.addr cloud_attrs;
                complete id (Ok ())
            | Error err ->
                on_error id c attempt ~op ~kind:Journal.Op_update err)
    | Plan.Update _, None, _ -> complete id (Error "update without prior state")
    | Plan.Delete, Some prior, _ -> delete id c attempt prior Drop_row
    | Plan.Delete, None, _ -> complete id (Error "delete without prior state")
    | Plan.Replace _, Some prior, Some desired ->
        if c.Plan.cbd then
          (* lifecycle create_before_destroy: the replacement comes up
             first, then the old resource is destroyed — no
             availability gap *)
          create id c attempt desired (Delete_old prior)
        else delete id c attempt prior (Create_new desired)
    | Plan.Replace _, _, _ -> complete id (Error "replace without prior state")
  and create id (c : Plan.change) attempt desired next =
    let attrs = resolve_live desired in
    submit id c attempt Journal.Op_create ~payload:attrs ~prior:None
      (Cloud.Create { rtype = c.Plan.rtype; region = c.Plan.region; attrs })
      (fun op result ->
        match result with
        | Ok cloud_attrs ->
            let cloud_id =
              match Smap.find_opt "id" cloud_attrs with
              | Some (Value.Vstring s) -> s
              | _ -> "?"
            in
            ok_outcome c ~op ~kind:Journal.Op_create ~cloud_id:(Some cloud_id)
              cloud_attrs;
            state_add
              {
                State.addr = c.Plan.addr;
                cloud_id;
                rtype = c.Plan.rtype;
                region = c.Plan.region;
                recorded = State.Recorded.of_map cloud_attrs;
                deps = c.Plan.deps;
              };
            advance id c attempt next
        | Error err -> on_error id c attempt ~op ~kind:Journal.Op_create err)
  and delete id (c : Plan.change) attempt (prior : State.resource_state) next =
    submit id c attempt Journal.Op_delete ~payload:Smap.empty
      ~prior:(Some prior.State.cloud_id)
      (Cloud.Delete { cloud_id = prior.State.cloud_id })
      (fun op result ->
        match result with
        | Ok _ | Error (Cloud.Not_found _) ->
            (* already gone = success for a delete *)
            ok_outcome c ~op ~kind:Journal.Op_delete
              ~cloud_id:(Some prior.State.cloud_id) Smap.empty;
            advance id c attempt next
        | Error err -> on_error id c attempt ~op ~kind:Journal.Op_delete err)
  and advance id (c : Plan.change) attempt = function
    | Settle -> complete id (Ok ())
    | Drop_row ->
        state_remove c.Plan.addr;
        complete id (Ok ())
    | Delete_old prior -> delete id c attempt prior Settle
    | Create_new desired ->
        state_remove c.Plan.addr;
        create id c attempt desired Settle
  (* Every entry into the walk — a cloud callback or a timer — runs
     only while [alive] and ends in [resume]: re-run admission, then
     release the calls the entry withheld.  A paced admission that
     books a future slot ends its admission cascade, so the next ready
     change is admitted by the next entry. *)
  and resume () =
    pump ();
    release ()
  and pump () =
    let can_start =
      match config.parallelism with
      | Some cap -> !in_flight < cap
      | None -> true
    in
    if alive () && can_start && not (ready_empty ()) then begin
      let t0 = now_mono () in
      let next = take_ready () in
      sched_time.(0) <- sched_time.(0) +. (now_mono () -. t0);
      match next with
      | None -> ()
      | Some id ->
          incr picks;
          incr in_flight;
          let writes_needed =
            match nodes.(id).Plan.action with
            | Plan.Noop -> 0
            | Plan.Replace _ -> 2 (* delete + create *)
            | Plan.Create | Plan.Update _ | Plan.Delete -> 1
          in
          (* §3.3: do not fire writes the provider would throttle.
             Each write the change needs reserves a token of the
             caller's [pacer] (possibly in the future) and the change
             waits for the last of them, so queued ops space themselves
             at the provider's refill rate instead of re-bursting
             together.  Retries are not booked.  The wait stays a local
             float: a booking that never waits allocates only
             [reserve]'s result. *)
          let wait = ref 0. in
          (match pacer with
          | Some pacer ->
              for _ = 1 to writes_needed do
                let w = Rate_limiter.reserve pacer ~now:(Cloud.now cloud) in
                if w > !wait then wait := w
              done
          | None -> ());
          if !wait > 0. then
            (* small guard so the op lands strictly after the refill
               boundary (float-exact arrivals would race the bucket) *)
            Cloud.schedule cloud ~delay:(!wait +. 0.05) (fun () ->
                if alive () then begin
                  perform id 0;
                  pump ();
                  resume ()
                end)
          else begin
            perform id 0;
            pump ()
          end
    end
  in
  if node_count = 0 then finish ()
  else begin
    (* seed the ready set, in plan (insertion) order *)
    Array.iteri (fun id n -> if n = 0 then add_ready id) remaining_deps;
    pump ();
    release ()
  end
