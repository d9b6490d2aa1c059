(** The event-driven control-plane fleet (E15) — the one control-plane
    entry point; a single-loop service is a fleet of one shard.

    [N] {!Shard}s share one simulated cloud and one metrics registry.
    A {!Router} owns tenant placement (consistent-hash ring plus
    rebalance pins); the fleet drive loop steps the shared clock and
    drains every shard round-robin after each event, so execution
    interleaves deterministically regardless of shard count.

    Drift detection is push-based: instead of polling the activity log
    per deployment (O(deployments) LookupEvents calls per period), the
    fleet holds exactly {e one} activity-log subscription, so each
    appended entry is delivered once.  The entry is classified
    ({!Drift.event_of_entry}) against the owning deployment's row and
    the resulting event routed to the owner's shard.  Detection
    partitions hash cloud ids while ownership hashes tenants, so the
    entry's {!Router.partition} is usually a {e different} shard:
    [cross_shard_routed] counts those hops.  Detection latency collapses
    to the entry's append instant and no per-poll log reads are paid.

    Fleet-level concerns stay here: the shared crash gate ([Crash_after
    k] counts journaled writes across the whole fleet, so a crash lands
    on whichever shard issues the (k+1)-th write), the policy
    controller, queue-depth-driven rebalancing, crash {!resume} at
    shard granularity, the owner index (cloud id -> deployment) that
    drift routing and the shard-count-invariant {!state_digest} read,
    and the shared write pacer: one token bucket mirroring the cloud's
    write budget that every unbounded walk of every shard books from,
    so the fleet as a whole stays inside the provider's budget instead
    of bursting into it and retrying the 429s. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Drift = Cloudless_drift.Drift
module Recovery = Cloudless_deploy.Recovery
module Controller = Cloudless_policy.Controller
module Policy = Cloudless_policy.Policy
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics

(* Queue-depth gap between the deepest and shallowest shard that
   triggers a rebalance move at the next periodic check. *)
let rebalance_threshold = 4

(* The owner index.  Every registered deployment has an [entry]; each
   row of the state the entry last read claims the [slot] of its cloud
   id, and the slot's [winner] is the id's owner.  The digest caches
   each row's rendered [line] with the slot of every string it looked
   up, owned or not.  Each change of a slot's owner is numbered: a line
   rendered or checked after the slot's last change still renders the
   right owners, and any other line renders again. *)
type entry = {
  dep : Shard.deployment;
  mutable read : State.t;  (** the state [rows] were taken from *)
  mutable rows : row array;  (** that state's rows, in address order *)
  mutable order : int array option;
      (** [rows] indices in address-text order; [None] after the
          address set changed *)
}

and row = {
  owner : entry;
  r : State.resource_state;
  mutable addr_text : string;
      (** [Addr.to_string r.addr], rendered when the digest first needs
          it and kept while the address stays; [""] before *)
  mutable line : line;
}

and line = {
  mutable text : string;  (** ["  addr|rtype|k=v…\n"]; [""] once expired *)
  looked_up : slot array;  (** the slot of each string value rendered *)
  mutable checked : int;
      (** the owner-change count when the line was rendered or last
          found current *)
}

and slot = {
  key : string;
  mutable winner : row option;  (** the row whose cloud id is [key] *)
  mutable rivals : row list;  (** any other row claiming it *)
  mutable changed : int;  (** the number of its owner's last change *)
  mutable live : int;  (** unexpired lines that looked [key] up *)
}

(* A growable byte buffer the digest renders into, reused across
   calls and hashed in place. *)
type out = { mutable bytes : Bytes.t; mutable len : int }

type t = {
  cloud : Cloud.t;
  config : Shard.service_config;
  trace : Trace.t;
  registry : Metrics.t;
  router : Router.t;
  shards : Shard.t array;
  controller : Controller.t option;
  crash : Failure.crash_policy ref;
  dead : bool ref;
  mutable sub : Activity_log.subscription option;
  mutable cursor : int;  (** next log seq to consume on a resume *)
  mutable unmanaged : (string * float) list;
      (** detections with no owning deployment (newest first) *)
  mutable until : float;
  mutable entries : entry list;
      (** every registered deployment, newest first *)
  mutable by_name : entry array;
      (** [entries] by (tenant, dname); rebuilt after a registration *)
  slots : (string, slot) Hashtbl.t;  (** string -> its slot *)
  out : out;
  mutable looked_up : slot array;
      (** the slots of the row being rendered, from index 0; grown as
          needed *)
  mutable changes : int;  (** owner changes so far, fleet-wide *)
}

let metrics t = t.registry
let cloud t = t.cloud
let router t = t.router
let shard_count t = Array.length t.shards
let shards t = Array.to_list t.shards
let set_crash t policy = t.crash := policy

let owner_shard t tenant = t.shards.(Router.assign t.router tenant)

(* The label of shard [sid]'s metrics: ["name.shard<sid>"]. *)
let shard_label sid = Printf.sprintf "shard%d" sid

(* The gauges {!Shard.finish_stats} writes per shard.  Each bare name
   holds the fleet's total, the sum of its ["name.shard<i>"] gauges. *)
let shard_totals =
  [
    "lock_grants";
    "lock_waits";
    "breaker_fast_fails";
    "breaker_violations";
    "breaker_open_cells";
  ]

let set_fleet_totals t =
  List.iter
    (fun name ->
      let parts =
        Array.to_list t.shards
        |> List.filter_map (fun s ->
               Metrics.gauge t.registry
                 (String.concat "." [ name; shard_label (Shard.sid s) ]))
      in
      if parts <> [] then
        Metrics.set t.registry name (List.fold_left ( +. ) 0. parts))
    shard_totals

(* The fleet's telemetry policy, ticked every [policy_period]: flag any
   accumulated drift. *)
let policy_src =
  {|
policy "drift_watch" {
  on   = "telemetry"
  when = obs.drift_events > 0

  action "note_drift" {
    kind    = "notify"
    message = "service observed ${obs.drift_events} drift event(s) across ${obs.tenants} tenant(s)"
  }
}
|}

let create ~cloud ?(trace = Trace.null) ~shards (config : Shard.service_config)
    =
  let registry = Metrics.create () in
  let controller =
    if config.Shard.policy_period > 0. then
      Some (Controller.of_source ~file:"<service-policy>" policy_src)
    else None
  in
  let crash = ref Failure.No_crash in
  let dead = ref false in
  let writes = ref 0 in
  (* one crash gate across the whole fleet: the service is one process
     no matter how many shards it runs *)
  let gate () =
    incr writes;
    match !crash with
    | Failure.Crash_after k when !writes > k ->
        dead := true;
        raise (Failure.Engine_crashed k)
    | _ -> ()
  in
  (* one pacer across the whole fleet, as for the gate: the provider
     budgets the service's writes, not each shard's *)
  let host =
    {
      Shard.gate;
      alive = (fun () -> not !dead);
      pacer = Cloud.write_pacer cloud;
    }
  in
  let mk sid =
    Shard.create ~sid ~cloud ~config
      ~scope:(Metrics.scoped registry (Some (shard_label sid)))
      ~trace ~host ()
  in
  Metrics.set registry "fleet_shards" (float_of_int shards);
  {
    cloud;
    config;
    trace;
    registry;
    router = Router.create ~shards ();
    shards = Array.init shards mk;
    controller;
    crash;
    dead;
    sub = None;
    cursor = 0;
    unmanaged = [];
    until = 0.;
    entries = [];
    by_name = [||];
    slots = Hashtbl.create 1024;
    out = { bytes = Bytes.create 4096; len = 0 };
    looked_up = [||];
    changes = 0;
  }

(* Rebalancing moves all of a tenant's deployments and pins the tenant
   in one step, so the router's owner holds every one of them. *)
let find_deployment t ~tenant ~dname =
  Shard.find_deployment (owner_shard t tenant) ~tenant ~dname

let add_deployment t ~tenant ~dname ~src =
  let dep = Shard.add_deployment (owner_shard t tenant) ~tenant ~dname ~src in
  t.entries <-
    { dep; read = State.empty; rows = [||]; order = Some [||] } :: t.entries;
  t.by_name <- [||];
  dep

let submit_request t (dep : Shard.deployment) ~src =
  Shard.submit_request (owner_shard t dep.Shard.tenant) dep ~src

let submit_rollback t (dep : Shard.deployment) ~label ~plan_of ?restore_src
    ~notify () =
  Shard.submit_rollback
    (owner_shard t dep.Shard.tenant)
    dep ~label ~plan_of ?restore_src ~notify ()

let deployments t =
  Array.to_list t.shards |> List.concat_map Shard.deployments

let managed_resource_count t =
  Array.fold_left (fun acc s -> acc + Shard.managed_resource_count s) 0 t.shards

(** (cloud_id, detected_at) across every shard plus unmanaged-entry
    detections, ordered by detection time. *)
let drift_detections t =
  let shard_dets =
    Array.to_list t.shards |> List.concat_map Shard.drift_detections
  in
  List.stable_sort
    (fun (_, a) (_, b) -> compare a b)
    (shard_dets @ List.rev t.unmanaged)

let completed_requests t =
  Array.to_list t.shards
  |> List.concat_map (fun s ->
         List.map
           (fun (rid, at) -> (Shard.sid s, rid, at))
           (Shard.completed_requests s))
  |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b)

(* ------------------------------------------------------------------ *)
(* The owner index                                                     *)
(* ------------------------------------------------------------------ *)

let slot t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
      let s = { key; winner = None; rivals = []; changed = 0; live = 0 } in
      Hashtbl.add t.slots key s;
      s

let forget_if_unused t s =
  if Option.is_none s.winner && s.live = 0 then
    match Hashtbl.find_opt t.slots s.key with
    | Some s' when s' == s -> Hashtbl.remove t.slots s.key
    | _ -> ()

let expired l = String.length l.text = 0

(* A line expires when its row leaves or changes, or when a string it
   looked up has changed owner; a slot that no row claims and no line
   looked up is dropped. *)
let expire t l =
  if not (expired l) then begin
    l.text <- "";
    Array.iter
      (fun s ->
        s.live <- s.live - 1;
        forget_if_unused t s)
      l.looked_up
  end

let no_line = { text = ""; looked_up = [||]; checked = 0 }

(* Which claim owns a cloud id claimed twice: the one the from-scratch
   rendering wrote last, filling its table in (tenant, dname) order
   and each state in address order. *)
let outranks a b =
  let c = String.compare a.owner.dep.Shard.tenant b.owner.dep.Shard.tenant in
  if c <> 0 then c > 0
  else
    let c = String.compare a.owner.dep.Shard.dname b.owner.dep.Shard.dname in
    if c <> 0 then c > 0 else Hcl.Addr.compare a.r.State.addr b.r.State.addr > 0

let claims s = match s.winner with Some w -> w :: s.rivals | None -> []

(* Give a slot the rows [claims] and re-elect its owner; a change of
   the owner's text gets the next number. *)
let elect t s claims =
  let w =
    List.fold_left
      (fun w c ->
        match w with Some b when not (outranks c b) -> w | _ -> Some c)
      None claims
  in
  let same =
    match (s.winner, w) with
    | None, None -> true
    | Some a, Some b ->
        a.owner == b.owner && Hcl.Addr.compare a.r.State.addr b.r.State.addr = 0
    | _ -> false
  in
  s.winner <- w;
  s.rivals <-
    (match w with Some w -> List.filter (fun c -> c != w) claims | None -> []);
  if not same then begin
    t.changes <- t.changes + 1;
    s.changed <- t.changes
  end;
  forget_if_unused t s

let claim t row =
  let s = slot t row.r.State.cloud_id in
  elect t s (row :: claims s)

let unclaim t row =
  match Hashtbl.find_opt t.slots row.r.State.cloud_id with
  | Some s -> elect t s (List.filter (fun c -> c != row) (claims s))
  | None -> ()

(* A new record at an old row's address, with the old row's cloud id:
   the owner text stays, so the new row takes the old one's claim as it
   is. *)
let take_over t o row =
  match Hashtbl.find_opt t.slots row.r.State.cloud_id with
  | Some ({ winner = Some w; _ } as s) when w == o -> s.winner <- Some row
  | Some s -> s.rivals <- List.map (fun c -> if c == o then row else c) s.rivals
  | None -> claim t row

(* Bring one entry up to its deployment's new state, walking the old
   and the new rows in address order: a physically unchanged record
   keeps its row, a new record at an old address keeps the address
   text, and any other row leaves or arrives. *)
let reindex t e state =
  let old = e.rows in
  let n = Array.length old and i = ref 0 and moved = ref false in
  let drop o =
    expire t o.line;
    unclaim t o;
    moved := true
  in
  let next (r : State.resource_state) =
    while
      !i < n
      && old.(!i).r != r
      && Hcl.Addr.compare old.(!i).r.State.addr r.State.addr < 0
    do
      drop old.(!i);
      incr i
    done;
    if !i < n && old.(!i).r == r then begin
      incr i;
      old.(!i - 1)
    end
    else begin
      let row = { owner = e; r; addr_text = ""; line = no_line } in
      if !i < n && Hcl.Addr.compare old.(!i).r.State.addr r.State.addr = 0
      then begin
        let o = old.(!i) in
        incr i;
        row.addr_text <- o.addr_text;
        expire t o.line;
        if String.equal o.r.State.cloud_id r.State.cloud_id then
          take_over t o row
        else begin
          unclaim t o;
          claim t row
        end
      end
      else begin
        moved := true;
        claim t row
      end;
      row
    end
  in
  let rows = List.map next (State.resources state) in
  while !i < n do
    drop old.(!i);
    incr i
  done;
  e.rows <- Array.of_list rows;
  e.read <- state;
  if !moved then e.order <- None

(* Re-index every deployment whose state is physically new since the
   last read: O(deployments) pointer tests plus the changed states. *)
let refresh t =
  List.iter
    (fun e -> if e.read != e.dep.Shard.state then reindex t e e.dep.Shard.state)
    t.entries

(* The row that owns [cloud_id], fleet-wide: one hash lookup after
   re-indexing the deployments whose state is physically new since the
   last read — O(deployments) pointer tests plus O(rows) per changed
   deployment. *)
let owning_row t cloud_id =
  refresh t;
  match Hashtbl.find_opt t.slots cloud_id with
  | Some s -> s.winner
  | None -> None

(** The deployment whose state tracks [cloud_id], fleet-wide. *)
let owning_deployment t cloud_id =
  match owning_row t cloud_id with Some w -> Some w.owner.dep | None -> None

(* ------------------------------------------------------------------ *)
(* Event-driven drift: one subscription per fleet                      *)
(* ------------------------------------------------------------------ *)

let deliver t (e : Activity_log.entry) =
  t.cursor <- e.Activity_log.seq + 1;
  if (not !(t.dead)) && Drift.oob_write e then
    match owning_row t e.Activity_log.cloud_id with
    | Some w -> (
        let dep = w.owner.dep in
        let owner = Router.assign t.router dep.Shard.tenant in
        if owner <> Router.partition t.router e.Activity_log.cloud_id then
          Metrics.inc t.registry "cross_shard_routed";
        (* the index holds the owner's row: the one its state's reverse
           index would find *)
        match Drift.event_of_entry t.cloud ~tracked:(Some w.r) e with
        | Some ev -> Shard.ingest_drift t.shards.(owner) dep [ ev ]
        | None -> ())
    | None -> (
        (* no deployment tracks it: an unmanaged create (or noise about
           an already-forgotten id).  Record once, fleet-wide — the
           polling engine flags these once per deployment. *)
        match e.Activity_log.op with
        | Activity_log.Log_create ->
            Metrics.inc t.registry "drift_events_unmanaged";
            t.unmanaged <-
              (e.Activity_log.cloud_id, e.Activity_log.time) :: t.unmanaged
        | _ -> ())

let subscribe t ~from =
  t.sub <- Some (Activity_log.subscribe (Cloud.log t.cloud) ~from (deliver t))

let unsubscribe t =
  Option.iter (Activity_log.unsubscribe (Cloud.log t.cloud)) t.sub;
  t.sub <- None

(* ------------------------------------------------------------------ *)
(* Rebalancing                                                         *)
(* ------------------------------------------------------------------ *)

(* One periodic check: if the deepest shard's queue exceeds the
   shallowest's by [rebalance_threshold], move the first quiescent
   tenant (no pending work on the source shard) over and pin it.  At
   most one tenant per tick keeps the churn observable and the
   decision trivially deterministic. *)
let rebalance_tick t =
  let n = Array.length t.shards in
  if n > 1 then begin
    let deepest = ref 0 and shallowest = ref 0 in
    Array.iteri
      (fun i s ->
        let d = Shard.queue_depth s in
        if d > Shard.queue_depth t.shards.(!deepest) then deepest := i;
        if d < Shard.queue_depth t.shards.(!shallowest) then shallowest := i)
      t.shards;
    let src = t.shards.(!deepest) and dst = t.shards.(!shallowest) in
    let gap = Shard.queue_depth src - Shard.queue_depth dst in
    Metrics.set t.registry "rebalance_gap" (float_of_int gap);
    if gap >= rebalance_threshold then begin
      let movable =
        List.filter
          (fun (d : Shard.deployment) ->
            Shard.tenant_pending src d.Shard.tenant = 0)
          (Shard.deployments src)
      in
      match movable with
      | [] -> ()
      | d :: _ ->
          let tenant = d.Shard.tenant in
          let moving =
            List.filter
              (fun (d : Shard.deployment) -> d.Shard.tenant = tenant)
              (Shard.deployments src)
          in
          List.iter
            (fun dep ->
              Shard.remove_deployment src dep;
              Shard.adopt_deployment dst dep)
            moving;
          Router.pin t.router tenant (Shard.sid dst);
          Metrics.inc t.registry "rebalance_moves";
          Trace.emit_span t.trace ~sim_start:(Cloud.now t.cloud)
            ~meta:
              [
                ("tenant", tenant);
                ("from", string_of_int (Shard.sid src));
                ("to", string_of_int (Shard.sid dst));
              ]
            ~counters:[ ("gap", gap); ("deployments", List.length moving) ]
            "rebalance"
    end
  end

let rec arm_rebalance_timer t =
  Cloud.schedule t.cloud ~delay:t.config.Shard.rebalance_period (fun () ->
      if not !(t.dead) then begin
        rebalance_tick t;
        if Cloud.now t.cloud +. t.config.Shard.rebalance_period <= t.until then
          arm_rebalance_timer t
      end)

(* ------------------------------------------------------------------ *)
(* Policy ticks (fleet-level)                                          *)
(* ------------------------------------------------------------------ *)

let policy_tick t c at =
  Metrics.inc t.registry "policy_ticks";
  let queue_depth =
    Array.fold_left (fun acc s -> acc + Shard.queue_depth s) 0 t.shards
  in
  let obs =
    Controller.standard_obs
      ~extra:
        [
          ("tenants", Value.Vint (List.length (deployments t)));
          ("managed_resources", Value.Vint (managed_resource_count t));
          ( "drift_events",
            Value.Vint (Metrics.counter t.registry "drift_events") );
          ("queue_depth", Value.Vint queue_depth);
          ("shards", Value.Vint (Array.length t.shards));
        ]
      ()
  in
  let r = Controller.tick c ~phase:Policy.On_telemetry ~obs () in
  Metrics.inc t.registry ~by:(List.length r.Controller.decisions)
    "policy_decisions";
  Trace.emit_span t.trace ~sim_start:at
    ~counters:[ ("decisions", List.length r.Controller.decisions) ]
    "policy_tick"

let rec arm_policy_timer t c =
  Cloud.schedule t.cloud ~delay:t.config.Shard.policy_period (fun () ->
      if not !(t.dead) then begin
        policy_tick t c (Cloud.now t.cloud);
        if Cloud.now t.cloud +. t.config.Shard.policy_period <= t.until then
          arm_policy_timer t c
      end)

(* ------------------------------------------------------------------ *)
(* The drive loop                                                      *)
(* ------------------------------------------------------------------ *)

(** Drive the fleet until the simulated event queue drains.  Arms every
    shard's scan timers ([Baseline]) or installs the per-shard log
    subscriptions ([Fleet]), arms the policy tick and (with more than
    one shard) the rebalance check, and steps the shared clock,
    draining each shard round-robin after every event.  Raises
    {!Failure.Engine_crashed} when the crash gate trips.  Call once per
    fleet instance ({!resume} builds the successor). *)
let run t ~until =
  t.until <- until;
  Array.iter (fun s -> Shard.arm_timers s ~until) t.shards;
  if t.config.Shard.preset = Shard.Fleet then subscribe t ~from:t.cursor;
  Option.iter (arm_policy_timer t) t.controller;
  if t.config.Shard.rebalance_period > 0. && Array.length t.shards > 1 then
    arm_rebalance_timer t;
  let drain_all () = Array.iter Shard.drain t.shards in
  drain_all ();
  let rec drive () =
    if (not !(t.dead)) && Cloud.step t.cloud then begin
      drain_all ();
      drive ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* a dead fleet must not keep classifying entries appended by its
         successor *)
      if !(t.dead) then unsubscribe t)
    drive;
  Array.iter Shard.finish_stats t.shards;
  set_fleet_totals t;
  Metrics.set t.registry "log_deliveries"
    (float_of_int (Activity_log.deliveries (Cloud.log t.cloud)))

(* ------------------------------------------------------------------ *)
(* Crash recovery and audits                                           *)
(* ------------------------------------------------------------------ *)

(** Build the dead fleet's successor on the same cloud, at the same
    shard count.  Per deployment — regardless of which shard owned it —
    replay its journal over the last persisted state and adopt
    in-flight creates from the activity log ({!Recovery.resume_state};
    per-deployment engine names keep adoption tenant-safe), register it
    on the successor's ring (fresh, unpinned — rebalance pins are
    process-local ephemera), and enqueue a converge request.  The
    fleet's subscription cursor carries over, so entries appended
    between the last delivery and the crash replay into the new
    subscriptions instead of being lost.  Returns the new fleet and the
    per-deployment recovery reports. *)
let resume (old : t) =
  unsubscribe old;
  let t =
    create ~cloud:old.cloud ~trace:old.trace
      ~shards:(Array.length old.shards) old.config
  in
  t.cursor <- old.cursor;
  let reports =
    List.map
      (fun (d : Shard.deployment) ->
        let entries = Journal.entries d.Shard.journal in
        let state, report =
          Recovery.resume_state old.cloud ~engine:d.Shard.engine
            ~state:d.Shard.persisted ~entries
        in
        let dep =
          add_deployment t ~tenant:d.Shard.tenant ~dname:d.Shard.dname
            ~src:d.Shard.config_src
        in
        dep.Shard.state <- state;
        dep.Shard.persisted <- state;
        (* keep journaling into the same (already-replayed) journal:
           re-appending the entries carries {!Journal.last_op} over,
           so op ids continue past every id the crashed fleet issued,
           and replay stays idempotent *)
        List.iter (Journal.append dep.Shard.journal) entries;
        ignore (submit_request t dep ~src:d.Shard.config_src);
        ((d.Shard.tenant, d.Shard.dname), report))
      (deployments old)
  in
  (t, reports)

(** IaC-engine-created resources alive in the cloud that no
    deployment's state tracks — the cross-tenant orphan audit. *)
let orphans t =
  Recovery.orphans t.cloud
    ~states:
      (List.map (fun (d : Shard.deployment) -> d.Shard.state) (deployments t))

(* ------------------------------------------------------------------ *)
(* Shard-count-invariant state digest                                  *)
(* ------------------------------------------------------------------ *)

(* The digest's writer: [out]'s bytes, grown by doubling. *)
let reserve o k =
  let need = o.len + k in
  if need > Bytes.length o.bytes then begin
    let b = Bytes.create (max need (2 * Bytes.length o.bytes)) in
    Bytes.blit o.bytes 0 b 0 o.len;
    o.bytes <- b
  end

let put_string o s =
  let k = String.length s in
  reserve o k;
  Bytes.blit_string s 0 o.bytes o.len k;
  o.len <- o.len + k

let put_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

(* ["tenant/dname"] *)
let put_label o e =
  put_string o e.dep.Shard.tenant;
  put_char o '/';
  put_string o e.dep.Shard.dname

let addr_text row =
  if row.addr_text = "" then
    row.addr_text <- Hcl.Addr.to_string row.r.State.addr;
  row.addr_text

(* Each deployment's rows in address-text order, as the from-scratch
   rendering sorted them (stably, from address order). *)
let text_order rows =
  let order = Array.init (Array.length rows) Fun.id in
  Array.stable_sort
    (fun a b -> String.compare (addr_text rows.(a)) (addr_text rows.(b)))
    order;
  order

(* Render one row's line at the end of [out] and keep its text with
   the slot of every string it looked up. *)
let render t row =
  let o = t.out in
  let start = o.len in
  let seen = ref 0 in
  (* recursive: reference attributes carry cloud ids inside lists
     ([vpc_security_group_ids = ["group-…"]]) and maps too *)
  let rec add_value v =
    match v with
    | Value.Vstring str -> (
        let s = slot t str in
        if !seen = Array.length t.looked_up then
          t.looked_up <- Array.append t.looked_up (Array.make (!seen + 8) s);
        t.looked_up.(!seen) <- s;
        incr seen;
        match s.winner with
        | Some w ->
            put_char o '@';
            put_label o w.owner;
            put_char o '/';
            put_string o (addr_text w)
        | None ->
            put_char o '"';
            put_string o (Value.escape_string str);
            put_char o '"')
    | Value.Vint n -> put_string o (string_of_int n)
    | Value.Vbool b -> put_string o (string_of_bool b)
    | Value.Vnull -> put_string o "null"
    | Value.Vlist vs ->
        put_char o '[';
        List.iteri
          (fun i v ->
            if i > 0 then put_char o ',';
            add_value v)
          vs;
        put_char o ']'
    | Value.Vmap m ->
        put_char o '{';
        let first = ref true in
        Smap.iter
          (fun k v ->
            if !first then first := false else put_char o ',';
            put_string o k;
            put_char o ':';
            add_value v)
          m;
        put_char o '}'
    | Value.Vfloat _ | Value.Vunknown _ -> put_string o (Value.show v)
  in
  put_string o "  ";
  put_string o (addr_text row);
  put_char o '|';
  put_string o row.r.State.rtype;
  Smap.iter
    (fun k v ->
      if k <> "arn" && k <> "id" then begin
        put_char o '|';
        put_string o k;
        put_char o '=';
        add_value v
      end)
    (State.attrs row.r);
  put_char o '\n';
  let line =
    {
      text = Bytes.sub_string o.bytes start (o.len - start);
      looked_up = Array.sub t.looked_up 0 !seen;
      checked = t.changes;
    }
  in
  Array.iter (fun s -> s.live <- s.live + 1) line.looked_up;
  row.line <- line

(** MD5 over a canonical rendering of every deployment's state.  Cloud
    ids are minted by a global counter whose order depends on execution
    interleaving — and therefore on the shard count — so the rendering
    replaces every known cloud id with the address of the resource it
    names ("@tenant0/d0/aws_instance.web[3]") and drops the id-derived
    [arn]/[id] attributes.  Two fleets that converged every tenant to
    the same logical world digest identically at any shard count.

    A call costs what changed since the previous one, plus one copy and
    one MD5 of the rendering: the owner index re-reads only the
    deployments whose state is physically new, and a row keeps its
    rendered line while its record is physically the same and every
    string it looked up keeps its owner.  The other rows render again
    into the one buffer the calls share. *)
let state_digest t =
  refresh t;
  if Array.length t.by_name = 0 then begin
    t.by_name <- Array.of_list (List.rev t.entries);
    Array.stable_sort
      (fun a b ->
        let c = String.compare a.dep.Shard.tenant b.dep.Shard.tenant in
        if c <> 0 then c
        else String.compare a.dep.Shard.dname b.dep.Shard.dname)
      t.by_name
  end;
  let o = t.out in
  o.len <- 0;
  Array.iter
    (fun e ->
      put_label o e;
      put_char o '\n';
      let order =
        match e.order with
        | Some order -> order
        | None ->
            let order = text_order e.rows in
            e.order <- Some order;
            order
      in
      Array.iter
        (fun i ->
          let row = e.rows.(i) in
          let l = row.line in
          if expired l then render t row
          else if l.checked = t.changes then put_string o l.text
          else if
            Array.exists (fun s -> s.changed > l.checked) l.looked_up
          then begin
            expire t l;
            render t row
          end
          else begin
            l.checked <- t.changes;
            put_string o l.text
          end)
        order)
    t.by_name;
  Digest.to_hex (Digest.subbytes o.bytes 0 o.len)
