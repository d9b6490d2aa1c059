(** The simulated cloud: a discrete-event management plane.

    This is the substitute substrate for AWS/Azure (DESIGN.md,
    substitution table).  It models exactly the properties every §3
    mechanism interacts with:

    - asynchronous CRUD operations with per-type service times,
    - token-bucket API rate limiting with 429-style throttling,
    - per-type regional quotas,
    - transient/permanent failures and hangs,
    - an activity log recording every management operation,
    - out-of-band mutation (the source of drift).

    Deployment engines drive the cloud in callback style: {!submit}
    registers an operation; {!step}/{!run_until_idle} advance simulated
    time and deliver completions. *)

module Smap = Cloudless_hcl.Value.Smap
module Value = Cloudless_hcl.Value
module Recorded = Cloudless_hcl.Recorded
module Trace = Cloudless_obs.Trace
module Diagnostic = Cloudless_error.Diagnostic

type status = Creating | Ready | Updating | Deleting | Failed of string

let status_to_string = function
  | Creating -> "creating"
  | Ready -> "ready"
  | Updating -> "updating"
  | Deleting -> "deleting"
  | Failed msg -> "failed:" ^ msg

type resource = {
  cloud_id : string;
  rtype : string;
  region : string;
  mutable attrs : Value.t Smap.t Lazy.t;
      (** built on the first read for a restored resource: see {!attrs} *)
  mutable status : status;
  created_at : float;
  mutable updated_at : float;
}

(** The attributes a resource holds. *)
let attrs r = Lazy.force r.attrs

let set_attrs r attrs = r.attrs <- Lazy.from_val attrs

type error =
  | Throttled of float  (** retry-after seconds *)
  | Not_found of string
  | Quota_exceeded of string
  | Transient of string
  | Invalid of string  (** permanent rejection, e.g. constraint violation *)

let error_to_string = function
  | Throttled after -> Printf.sprintf "429 throttled (retry after %.1fs)" after
  | Not_found id -> Printf.sprintf "404 resource %S not found" id
  | Quota_exceeded msg -> Printf.sprintf "409 quota exceeded: %s" msg
  | Transient msg -> Printf.sprintf "500 transient: %s" msg
  | Invalid msg -> Printf.sprintf "400 invalid: %s" msg

type op =
  | Create of { rtype : string; region : string; attrs : Value.t Smap.t }
  | Update of { cloud_id : string; attrs : Value.t Smap.t }
  | Delete of { cloud_id : string }
  | Read of { cloud_id : string }
  | List_type of { rtype : string; region : string option }

type op_result = (Value.t Smap.t, error) result

(** Cloud-level semantic check, invoked before a create/update commits.
    Receives a lookup function over existing resources so cross-resource
    constraints ("the referenced NIC must exist and be in the same
    region") can be expressed.  Returning [Error msg] rejects the
    operation with [Invalid msg] *after* the service time has elapsed —
    cloud constraint violations surface late, which is precisely the
    §3.2 pain point. *)
type semantic_check =
  lookup:(string -> resource option) ->
  rtype:string ->
  region:string ->
  attrs:Value.t Smap.t ->
  (unit, string) result

type config = {
  regions : string list;
  api_latency : float;  (** per-call round-trip, seconds *)
  quotas : (string * int) list;  (** max instances per type per region *)
  failure : Failure.t;
  semantic_checks : semantic_check list;
  list_page_size : int;
}

let default_config =
  {
    regions =
      [
        "us-east-1"; "us-west-2"; "eu-west-1"; "ap-southeast-1";
        (* azure + gcp flavoured names used by those providers' types *)
        "eastus"; "westus2"; "westeurope"; "southeastasia";
        "us-central1"; "us-east4"; "europe-west1"; "asia-southeast1";
      ];
    api_latency = 0.15;
    quotas = [];
    failure = Failure.none;
    semantic_checks = [];
    list_page_size = 50;
  }

type t = {
  config : config;
  prng : Prng.t;
  mutable clock : float;
  events : (unit -> unit) Event_queue.t;
  resources : (string, resource) Hashtbl.t;  (** by cloud_id *)
  write_limiter : Rate_limiter.t;
  read_limiter : Rate_limiter.t;
  log : Activity_log.t;
  mutable id_counter : int;
  mutable prefix_key : string;  (** {!fresh_id}'s one-entry prefix cache *)
  mutable prefix_val : string;
  mutable api_calls : int;
  mutable episodes : Failure.episode list;
      (** time-windowed fault episodes, consulted before the static
          failure draw on every write *)
  mutable episode_faults : int;
      (** writes rejected (failed or throttled) by an active episode *)
  mutable trace : Trace.t;
      (** stage tracer; API-call and throttle counters land on whatever
          span is active when the call is submitted *)
}

let create ?(config = default_config) ?write_limiter ?read_limiter ~seed () =
  {
    config;
    prng = Prng.create seed;
    clock = 0.;
    events = Event_queue.create ();
    resources = Hashtbl.create 64;
    write_limiter =
      (match write_limiter with
      | Some l -> l
      | None -> Rate_limiter.default_write ());
    read_limiter =
      (match read_limiter with
      | Some l -> l
      | None -> Rate_limiter.default_read ());
    log = Activity_log.create ();
    id_counter = 0;
    prefix_key = "";
    prefix_val = "";
    api_calls = 0;
    episodes = [];
    episode_faults = 0;
    trace = Trace.null;
  }

let now t = t.clock
let log t = t.log
let api_call_count t = t.api_calls

(** Attach a tracer: every subsequent API call (and throttle) is
    counted on the tracer's innermost active span, so per-stage
    counters come from the layer that owns them. *)
let set_trace t trace =
  t.trace <- trace;
  (* spans begun after this point carry discrete-event timestamps *)
  Trace.set_sim_clock trace (fun () -> t.clock)

let write_throttle_stats t = Rate_limiter.stats t.write_limiter

(** A new, full client-side bucket with the provider's write budget:
    the pacer a §3.3 engine books its writes from. *)
let write_pacer t = Rate_limiter.fresh t.write_limiter

let read_throttle_stats t = Rate_limiter.stats t.read_limiter

(* Short id prefix from the resource type, e.g. aws_vpc -> "vpc". *)
let id_prefix rtype =
  match String.rindex_opt rtype '_' with
  | Some i -> String.sub rtype (i + 1) (String.length rtype - i - 1)
  | None -> rtype

(* Byte-identical to [Printf.sprintf "%s-%06x"] without the format
   interpreter — ids are minted once per created resource, squarely on
   the apply hot path. *)
let hex = "0123456789abcdef"

let fresh_id t rtype =
  t.id_counter <- t.id_counter + 1;
  (* One-entry per-cloud prefix cache: a run mints ids for long
     streaks of the same resource type, and the substring per call
     showed up at 1M creates.  Equal-content keys hit too, covering
     plans whose rtype strings are not physically shared.  Lives on
     [t] (not a global), like the id counter it prefixes, so two
     clouds in one process never share it. *)
  let prefix =
    if String.equal t.prefix_key rtype then t.prefix_val
    else begin
      let p = id_prefix rtype in
      t.prefix_key <- rtype;
      t.prefix_val <- p;
      p
    end
  in
  let p = String.length prefix in
  let c = t.id_counter in
  (* %06x: at least six hex digits, more only if the value needs them *)
  let digits =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 4) in
    max 6 (if c = 0 then 1 else go 0 c)
  in
  let b = Bytes.create (p + 1 + digits) in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.set b p '-';
  let v = ref c in
  for i = p + digits downto p + 1 do
    Bytes.set b i hex.[!v land 0xf];
    v := !v lsr 4
  done;
  Bytes.unsafe_to_string b

let lookup t cloud_id = Hashtbl.find_opt t.resources cloud_id

let resources_of_type t ?region rtype =
  Hashtbl.fold
    (fun _ r acc ->
      if
        r.rtype = rtype
        && (match region with Some reg -> r.region = reg | None -> true)
        && r.status <> Deleting
      then r :: acc
      else acc)
    t.resources []
  |> List.sort (fun a b -> String.compare a.cloud_id b.cloud_id)

let all_resources t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.resources []
  |> List.sort (fun a b -> String.compare a.cloud_id b.cloud_id)

let resource_count t = Hashtbl.length t.resources

let schedule t ~delay f =
  Event_queue.push t.events ~time:(t.clock +. delay) f

(** Schedule [f] at the absolute simulated [time] (now, if [time] has
    passed): the clock then reads exactly [time], where [now + (time -
    now)] can round below it. *)
let schedule_at t ~time f =
  Event_queue.push t.events ~time:(Float.max t.clock time) f

(** Advance to the next event and run it.  Returns [false] when the
    queue is empty. *)
let step t =
  if Event_queue.is_empty t.events then false
  else begin
    let time = Event_queue.next_time t.events in
    let f = Event_queue.take t.events in
    t.clock <- Float.max t.clock time;
    f ();
    true
  end

let run_until_idle t =
  while step t do
    ()
  done

(** Advance simulated time even with an empty queue (used by monitors
    that poll on a period). *)
let advance_to t time = if time > t.clock then t.clock <- time

(* ------------------------------------------------------------------ *)
(* Operation execution                                                 *)
(* ------------------------------------------------------------------ *)

let count_in_region t rtype region =
  Hashtbl.fold
    (fun _ r acc ->
      if r.rtype = rtype && r.region = region && r.status <> Deleting then
        acc + 1
      else acc)
    t.resources 0

let quota_of t rtype = List.assoc_opt rtype t.config.quotas

let check_semantics t ~rtype ~region ~attrs =
  match t.config.semantic_checks with
  | [] -> Ok ()  (* don't build the lookup closure for check-free clouds *)
  | checks ->
      let lookup id = lookup t id in
      let rec go = function
        | [] -> Ok ()
        | check :: rest -> (
            match check ~lookup ~rtype ~region ~attrs with
            | Ok () -> go rest
            | Error _ as e -> e)
      in
      go checks

let log_append t ~actor ~op ~cloud_id ~rtype ~region ~detail =
  ignore
    (Activity_log.append t.log ~time:t.clock ~actor ~op ~cloud_id ~rtype
       ~region ~detail)

(* ------------------------------------------------------------------ *)
(* Fault episodes                                                      *)
(* ------------------------------------------------------------------ *)

(** Install the episode schedule.  Window boundaries are appended to
    the activity log as [Log_failure "episode-start:…"/"episode-end:…"]
    markers under the internal actor, so log subscribers (and humans
    reading the log) can see the regime changes; the markers are not
    write ops and never trigger drift. *)
let set_episodes t eps =
  t.episodes <-
    List.sort (fun a b -> compare a.Failure.estart b.Failure.estart) eps;
  List.iter
    (fun (e : Failure.episode) ->
      let name = Failure.episode_kind_to_string e.Failure.ekind in
      let rtype = Option.value e.Failure.ertype ~default:"*" in
      let region = Option.value e.Failure.eregion ~default:"*" in
      let mark tag at =
        let delay = at -. t.clock in
        if delay >= 0. then
          schedule t ~delay (fun () ->
              log_append t ~actor:Activity_log.Cloud_internal
                ~op:(Activity_log.Log_failure (tag ^ ":" ^ name))
                ~cloud_id:"-" ~rtype ~region
                ~detail:(tag ^ " " ^ name))
      in
      mark "episode-start" e.Failure.estart;
      if e.Failure.ekind <> Failure.Spot_termination then
        mark "episode-end" e.Failure.efinish)
    eps

let episodes t = t.episodes
let episode_fault_count t = t.episode_faults

(* Verdict of the active episodes for one write, [None] = fall through
   to the static draw.  The [[] -> None] fast path keeps episode-free
   clouds allocation- and PRNG-identical to before. *)
let episode_reject t ~rtype ~region =
  match t.episodes with
  | [] -> None
  | eps -> Failure.episode_verdict eps t.prng ~now:t.clock ~rtype ~region

(* Static quota lowered by any active quota-cut episode. *)
let effective_quota t ~rtype ~region =
  let floor_ =
    match t.episodes with
    | [] -> None
    | eps -> Failure.quota_floor eps ~now:t.clock ~rtype ~region
  in
  match (quota_of t rtype, floor_) with
  | Some a, Some b -> Some (min a b)
  | (Some _ as q), None -> q
  | None, f -> f

(* Fail one write per an episode verdict: fast rejection at API
   latency, like a real provider's 5xx/429 front door. *)
let episode_fail t ~actor ~rtype ~region verdict k =
  t.episode_faults <- t.episode_faults + 1;
  match verdict with
  | Failure.Ep_error msg ->
      schedule t ~delay:t.config.api_latency (fun () ->
          log_append t ~actor
            ~op:(Activity_log.Log_failure msg)
            ~cloud_id:"-" ~rtype ~region ~detail:msg;
          k (Error (Transient msg)))
  | Failure.Ep_throttle after ->
      Trace.count t.trace "throttled" 1;
      schedule t ~delay:t.config.api_latency (fun () ->
          k (Error (Throttled after)))

(* The arn of [r], hand-concatenated ([= sprintf "arn:sim:%s:%s:%s"]
   byte for byte); the format interpreter allocated measurably at 1M
   creates. *)
let arn r =
  let lr = String.length r.region
  and lt = String.length r.rtype
  and li = String.length r.cloud_id in
  let b = Bytes.create (10 + lr + lt + li) in
  Bytes.blit_string "arn:sim:" 0 b 0 8;
  Bytes.blit_string r.region 0 b 8 lr;
  Bytes.set b (8 + lr) ':';
  Bytes.blit_string r.rtype 0 b (9 + lr) lt;
  Bytes.set b (9 + lr + lt) ':';
  Bytes.blit_string r.cloud_id 0 b (10 + lr + lt) li;
  Bytes.unsafe_to_string b

(* Computed attributes the cloud adds to every resource.  A map that
   already holds them, as an updated resource's does, is returned
   itself. *)
let computed_attrs t r =
  ignore t;
  let m = attrs r in
  let holds key ok =
    match Smap.find key m with
    | Value.Vstring s -> ok s
    | _ -> false
    | exception Not_found -> false
  in
  if
    holds "id" (String.equal r.cloud_id)
    && holds "region" (String.equal r.region)
    && holds "arn" (String.equal (arn r))
  then m
  else
    m
    |> Smap.add "id" (Value.Vstring r.cloud_id)
    |> Smap.add "arn" (Value.Vstring (arn r))
    |> Smap.add "region" (Value.Vstring r.region)

let sample_duration t rtype kind = Service_model.sample t.prng rtype kind

(** Submit an operation on behalf of [actor]; [k] receives the result
    when the operation completes in simulated time. *)
let submit t ~actor op (k : op_result -> unit) =
  t.api_calls <- t.api_calls + 1;
  Trace.count t.trace "api_calls" 1;
  let limiter =
    match op with
    | Read _ | List_type _ -> t.read_limiter
    | Create _ | Update _ | Delete _ -> t.write_limiter
  in
  match Rate_limiter.try_acquire limiter ~now:t.clock with
  | Error retry_after ->
      (* Throttled calls are rejected fast (no service time). *)
      Trace.count t.trace "throttled" 1;
      schedule t ~delay:t.config.api_latency (fun () ->
          k (Error (Throttled retry_after)))
  | Ok () -> (
      match op with
      | Create { rtype; region; attrs } ->
          if not (List.mem region t.config.regions) then
            schedule t ~delay:t.config.api_latency (fun () ->
                k (Error (Invalid (Printf.sprintf "unknown region %S" region))))
          else begin
            match episode_reject t ~rtype ~region with
            | Some verdict -> episode_fail t ~actor ~rtype ~region verdict k
            | None -> (
            match effective_quota t ~rtype ~region with
            | Some q when count_in_region t rtype region >= q ->
                schedule t ~delay:t.config.api_latency (fun () ->
                    log_append t ~actor
                      ~op:(Activity_log.Log_failure "quota")
                      ~cloud_id:"-" ~rtype ~region ~detail:"quota exceeded";
                    k
                      (Error
                         (Quota_exceeded
                            (Printf.sprintf "%s limit %d in %s" rtype q region))))
            | _ -> (
                match Failure.draw t.config.failure t.prng ~rtype with
                | Failure.Fail_permanent msg ->
                    let d = sample_duration t rtype Service_model.Op_create in
                    schedule t ~delay:(t.config.api_latency +. (d *. 0.3))
                      (fun () ->
                        log_append t ~actor
                          ~op:(Activity_log.Log_failure msg) ~cloud_id:"-"
                          ~rtype ~region ~detail:msg;
                        k (Error (Invalid msg)))
                | Failure.Fail_transient msg ->
                    let d = sample_duration t rtype Service_model.Op_create in
                    schedule t ~delay:(t.config.api_latency +. (d *. 0.2))
                      (fun () ->
                        log_append t ~actor
                          ~op:(Activity_log.Log_failure msg) ~cloud_id:"-"
                          ~rtype ~region ~detail:msg;
                        k (Error (Transient msg)))
                | (Failure.Proceed | Failure.Slow _) as outcome ->
                    let factor =
                      match outcome with
                      | Failure.Slow f -> f
                      | _ -> 1.
                    in
                    let d =
                      sample_duration t rtype Service_model.Op_create *. factor
                    in
                    (* The resource is visible in Creating state
                       immediately (like real clouds). *)
                    let cloud_id = fresh_id t rtype in
                    let r =
                      {
                        cloud_id;
                        rtype;
                        region;
                        attrs = Lazy.from_val attrs;
                        status = Creating;
                        created_at = t.clock;
                        updated_at = t.clock;
                      }
                    in
                    Hashtbl.replace t.resources cloud_id r;
                    schedule t ~delay:(t.config.api_latency +. d) (fun () ->
                        (* semantic (cross-resource) validation happens
                           at materialization time *)
                        match check_semantics t ~rtype ~region ~attrs with
                        | Error msg ->
                            Hashtbl.remove t.resources cloud_id;
                            log_append t ~actor
                              ~op:(Activity_log.Log_failure msg) ~cloud_id
                              ~rtype ~region ~detail:msg;
                            k (Error (Invalid msg))
                        | Ok () ->
                            r.status <- Ready;
                            set_attrs r (computed_attrs t r);
                            r.updated_at <- t.clock;
                            log_append t ~actor ~op:Activity_log.Log_create
                              ~cloud_id ~rtype ~region ~detail:"created";
                            k (Ok (Lazy.force r.attrs)))))
          end
      | Update { cloud_id; attrs } -> (
          match lookup t cloud_id with
          | None ->
              schedule t ~delay:t.config.api_latency (fun () ->
                  k (Error (Not_found cloud_id)))
          | Some r -> (
              match episode_reject t ~rtype:r.rtype ~region:r.region with
              | Some verdict ->
                  episode_fail t ~actor ~rtype:r.rtype ~region:r.region verdict
                    k
              | None -> (
              match Failure.draw t.config.failure t.prng ~rtype:r.rtype with
              | Failure.Fail_transient msg ->
                  schedule t ~delay:(t.config.api_latency *. 2.) (fun () ->
                      k (Error (Transient msg)))
              | Failure.Fail_permanent msg ->
                  schedule t ~delay:(t.config.api_latency *. 2.) (fun () ->
                      k (Error (Invalid msg)))
              | (Failure.Proceed | Failure.Slow _) as outcome ->
                  let factor =
                    match outcome with Failure.Slow f -> f | _ -> 1.
                  in
                  let d =
                    sample_duration t r.rtype Service_model.Op_update *. factor
                  in
                  r.status <- Updating;
                  schedule t ~delay:(t.config.api_latency +. d) (fun () ->
                      match
                        check_semantics t ~rtype:r.rtype ~region:r.region
                          ~attrs
                      with
                      | Error msg ->
                          r.status <- Ready;
                          log_append t ~actor
                            ~op:(Activity_log.Log_failure msg) ~cloud_id
                            ~rtype:r.rtype ~region:r.region ~detail:msg;
                          k (Error (Invalid msg))
                      | Ok () ->
                          set_attrs r
                            (computed_attrs t
                               {
                                 r with
                                 attrs =
                                   Lazy.from_val
                                     (Smap.union
                                        (fun _ _ v -> Some v)
                                        (Lazy.force r.attrs) attrs);
                               });
                          r.status <- Ready;
                          r.updated_at <- t.clock;
                          log_append t ~actor ~op:Activity_log.Log_update
                            ~cloud_id ~rtype:r.rtype ~region:r.region
                            ~detail:"updated";
                          k (Ok (Lazy.force r.attrs))))))
      | Delete { cloud_id } -> (
          match lookup t cloud_id with
          | None ->
              schedule t ~delay:t.config.api_latency (fun () ->
                  k (Error (Not_found cloud_id)))
          | Some r -> (
              match episode_reject t ~rtype:r.rtype ~region:r.region with
              | Some verdict ->
                  episode_fail t ~actor ~rtype:r.rtype ~region:r.region verdict
                    k
              | None ->
                  let d = sample_duration t r.rtype Service_model.Op_delete in
                  r.status <- Deleting;
                  schedule t ~delay:(t.config.api_latency +. d) (fun () ->
                      Hashtbl.remove t.resources cloud_id;
                      log_append t ~actor ~op:Activity_log.Log_delete ~cloud_id
                        ~rtype:r.rtype ~region:r.region ~detail:"deleted";
                      k (Ok (attrs r)))))
      | Read { cloud_id } -> (
          match lookup t cloud_id with
          | None ->
              schedule t ~delay:t.config.api_latency (fun () ->
                  k (Error (Not_found cloud_id)))
          | Some r ->
              let d = sample_duration t r.rtype Service_model.Op_read in
              schedule t ~delay:(t.config.api_latency +. d) (fun () ->
                  log_append t ~actor ~op:Activity_log.Log_read ~cloud_id
                    ~rtype:r.rtype ~region:r.region ~detail:"read";
                  k (Ok (attrs r))))
      | List_type { rtype; region } ->
          let rs = resources_of_type t ?region rtype in
          (* Pagination: each extra page is an extra read-limiter call;
             charge them up front. *)
          let pages =
            max 1
              ((List.length rs + t.config.list_page_size - 1)
              / t.config.list_page_size)
          in
          let throttled = ref None in
          for _ = 2 to pages do
            t.api_calls <- t.api_calls + 1;
            Trace.count t.trace "api_calls" 1;
            match Rate_limiter.try_acquire t.read_limiter ~now:t.clock with
            | Ok () -> ()
            | Error after ->
                Trace.count t.trace "throttled" 1;
                if !throttled = None then throttled := Some after
          done;
          (match !throttled with
          | Some after ->
              schedule t ~delay:t.config.api_latency (fun () ->
                  k (Error (Throttled after)))
          | None ->
              let d = 0.2 *. float_of_int pages in
              schedule t ~delay:(t.config.api_latency +. d) (fun () ->
                  let listing =
                    List.map
                      (fun r -> (r.cloud_id, Value.Vmap (attrs r)))
                      rs
                  in
                  k (Ok (Smap.of_seq (List.to_seq listing))))))

(* ------------------------------------------------------------------ *)
(* Synchronous conveniences (drive the loop internally)                *)
(* ------------------------------------------------------------------ *)

(** Run [op] and drive the simulation until it completes.  Only safe
    when no other operations are in flight (tests, simple tools). *)
let run_sync t ~actor op =
  let result = ref None in
  submit t ~actor op (fun r -> result := Some r);
  let rec drive () =
    match !result with
    | Some r -> r
    | None ->
        if step t then drive ()
        else
          Cloudless_error.fail ~stage:Diagnostic.Internal ~code:"sim-stalled"
            "simulation stalled: operation submitted but event queue drained"
  in
  drive ()

(* ------------------------------------------------------------------ *)
(* Out-of-band mutation: the source of drift (§3.5)                    *)
(* ------------------------------------------------------------------ *)

(** Mutate a resource attribute directly, bypassing any IaC engine —
    models a legacy script or ClickOps change.  Logged with the
    out-of-band actor so log-based drift detection can spot it. *)
let mutate_oob t ~script ~cloud_id ~attr ~value =
  match lookup t cloud_id with
  | None -> Error (Not_found cloud_id)
  | Some r ->
      set_attrs r (Smap.add attr value (attrs r));
      r.updated_at <- t.clock;
      log_append t ~actor:(Activity_log.Oob_script script)
        ~op:Activity_log.Log_update ~cloud_id ~rtype:r.rtype ~region:r.region
        ~detail:(Printf.sprintf "set %s" attr);
      Ok ()

(** Delete a resource out-of-band. *)
let delete_oob t ~script ~cloud_id =
  match lookup t cloud_id with
  | None -> Error (Not_found cloud_id)
  | Some r ->
      Hashtbl.remove t.resources cloud_id;
      log_append t ~actor:(Activity_log.Oob_script script)
        ~op:Activity_log.Log_delete ~cloud_id ~rtype:r.rtype ~region:r.region
        ~detail:"deleted out of band";
      Ok ()

(** Create a resource out-of-band (an "unmanaged" resource). *)
let create_oob t ~script ~rtype ~region ~attrs =
  let cloud_id = fresh_id t rtype in
  let r =
    {
      cloud_id;
      rtype;
      region;
      attrs = Lazy.from_val attrs;
      status = Ready;
      created_at = t.clock;
      updated_at = t.clock;
    }
  in
  set_attrs r (computed_attrs t r);
  Hashtbl.replace t.resources cloud_id r;
  log_append t ~actor:(Activity_log.Oob_script script)
    ~op:Activity_log.Log_create ~cloud_id ~rtype ~region
    ~detail:"created out of band";
  cloud_id

(* The number [id] carries if {!fresh_id} minted it: its hex suffix
   after the last '-', read in place when it is plain hex digits. *)
let id_number id =
  match String.rindex_opt id '-' with
  | Some i ->
      let n = String.length id in
      let rec hex_at j acc =
        if j = n then Some acc
        else
          match id.[j] with
          | '0' .. '9' as c -> hex_at (j + 1) ((acc * 16) + Char.code c - 48)
          | 'a' .. 'f' as c -> hex_at (j + 1) ((acc * 16) + Char.code c - 87)
          | 'A' .. 'F' as c -> hex_at (j + 1) ((acc * 16) + Char.code c - 55)
          | _ -> None
      in
      let digits = n - i - 1 in
      (match if digits >= 1 && digits <= 15 then hex_at (i + 1) 0 else None with
      | Some _ as v -> v
      | None -> int_of_string_opt ("0x" ^ String.sub id (i + 1) digits))
  | None -> None

(** Register a recorded resource under its recorded [cloud_id], ready,
    as restoring a deployment's state into a fresh simulator does.  It
    is no cloud traffic: no API call, no activity-log entry.  The id
    counter moves past the id's [<prefix>-<hex>] suffix, so no id
    minted later collides with a restored one.  When the [recorded]
    attributes hold the [id], [arn] and [region] the cloud computes
    (checked on their text, as {!Recorded.holds} does), they are the
    resource's, read on its first read, and the result is [None].
    Otherwise they are read now, the computed ones are added, and the
    result is [Some] of the attributes the cloud holds.  A resource
    already registered under [cloud_id] is replaced. *)
let restore t ~cloud_id ~rtype ~region recorded =
  (match id_number cloud_id with
  | Some n when n > t.id_counter -> t.id_counter <- n
  | _ -> ());
  let r =
    {
      cloud_id;
      rtype;
      region;
      attrs = lazy (Recorded.map recorded);
      status = Ready;
      created_at = t.clock;
      updated_at = t.clock;
    }
  in
  Hashtbl.replace t.resources cloud_id r;
  if
    Recorded.string_is recorded "id" cloud_id
    && Recorded.string_is recorded "region" region
    && Recorded.string_is recorded "arn" (arn r)
  then None
  else begin
    let attrs = computed_attrs t r in
    set_attrs r attrs;
    Some attrs
  end
