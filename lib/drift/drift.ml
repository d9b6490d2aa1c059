(** Drift detection (§3.5).

    "Resource drift" = cloud changes made outside the IaC framework.
    Two detectors:

    - {!Scanner}: the driftctl-style baseline — periodically list/read
      every deployment resource through the management API and compare
      with state.  Thorough but expensive: O(state size) API reads per
      scan, which collides with API rate limits and quotas.
    - {!Log_tailer}: the cloudless-native approach — tail the cloud
      activity log and flag writes not attributable to an IaC engine.
      Cost is O(new log entries); detection latency is one polling
      period. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Sset = Set.Make (String)
module State = Cloudless_state.State
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log

type kind =
  | Attr_drift of { attr : string; expected : Value.t; actual : Value.t }
  | Deleted_oob  (** resource gone from the cloud but present in state *)
  | Unmanaged of { cloud_id : string; rtype : string }
      (** resource in the cloud but not tracked in state *)

type event = {
  addr : Addr.t option;  (** None for unmanaged resources *)
  cloud_id : string;
  kind : kind;
  detected_at : float;
  occurred_at : float option;  (** known for log-based detection *)
}

let kind_to_string = function
  | Attr_drift { attr; expected; actual } ->
      Printf.sprintf "attribute %s drifted: %s -> %s" attr
        (Value.show expected) (Value.show actual)
  | Deleted_oob -> "deleted outside IaC"
  | Unmanaged { cloud_id; rtype } ->
      Printf.sprintf "unmanaged %s resource %s" rtype cloud_id

let pp_event ppf e =
  Fmt.pf ppf "[%.1f] %s %s"
    e.detected_at
    (match e.addr with Some a -> Addr.to_string a | None -> "(unmanaged)")
    (kind_to_string e.kind)

(* Attributes expected to differ between state and cloud reads. *)
let comparable attrs = Smap.filter (fun k _ -> k <> "arn") attrs

(* ------------------------------------------------------------------ *)
(* Scan-based detection (the expensive baseline)                       *)
(* ------------------------------------------------------------------ *)

module Scanner = struct
  type scan_result = {
    events : event list;
    api_reads : int;  (** management API calls consumed *)
    duration : float;
    throttled : int;  (** reads that had to be retried due to 429 *)
  }

  (* Callback-shaped so a shard can sweep on the shared event loop:
     every read and listing settles before [on_done], throttled ones
     retrying after the provider's retry-after.  Each callback first
     checks [alive]. *)
  let start (cloud : Cloud.t) ~engine ~(state : State.t)
      ?(detect_unmanaged = false) ~alive ~count_api ~on_done () =
    let actor = Activity_log.Iac_engine engine in
    let started = Cloud.now cloud in
    let tracked = State.resources state in
    let types =
      if detect_unmanaged then
        List.sort_uniq String.compare
          (List.map (fun (r : State.resource_state) -> r.State.rtype) tracked)
      else []
    in
    let total = List.length tracked + List.length types in
    let reads = ref 0 and throttled = ref 0 and settled = ref 0 in
    let events = ref [] in
    let emit e = events := e :: !events in
    let finish () =
      {
        events = List.rev !events;
        api_reads = !reads;
        duration = Cloud.now cloud -. started;
        throttled = !throttled;
      }
    in
    let settle () =
      incr settled;
      if !settled = total then on_done (finish ())
    in
    let retry after k =
      incr throttled;
      Cloud.schedule cloud ~delay:(after +. 0.1) (fun () ->
          if alive () then k ())
    in
    (* read each tracked resource, compare with state *)
    let rec read_resource (r : State.resource_state) =
      incr reads;
      count_api 1;
      Cloud.submit cloud ~actor
        (Cloud.Read { cloud_id = r.State.cloud_id })
        (fun result ->
          if alive () then
            match result with
            | Ok actual ->
                Smap.iter
                  (fun attr expected ->
                    match Smap.find_opt attr actual with
                    | Some actual_v when not (Value.equal expected actual_v) ->
                        emit
                          {
                            addr = Some r.State.addr;
                            cloud_id = r.State.cloud_id;
                            kind =
                              Attr_drift { attr; expected; actual = actual_v };
                            detected_at = Cloud.now cloud;
                            occurred_at = None;
                          }
                    | _ -> ())
                  (comparable (State.attrs r));
                settle ()
            | Error (Cloud.Not_found _) ->
                emit
                  {
                    addr = Some r.State.addr;
                    cloud_id = r.State.cloud_id;
                    kind = Deleted_oob;
                    detected_at = Cloud.now cloud;
                    occurred_at = None;
                  };
                settle ()
            | Error (Cloud.Throttled after) ->
                retry after (fun () -> read_resource r)
            | Error _ -> settle ())
    in
    (* list each tracked type for resources state does not know; one
       listing counts as one read however often it is throttled *)
    let list_unmanaged known_ids rtype =
      incr reads;
      let rec list_type () =
        count_api 1;
        Cloud.submit cloud ~actor
          (Cloud.List_type { rtype; region = None })
          (fun result ->
            if alive () then
              match result with
              | Ok listing ->
                  Smap.iter
                    (fun cloud_id _ ->
                      if not (Sset.mem cloud_id known_ids) then
                        emit
                          {
                            addr = None;
                            cloud_id;
                            kind = Unmanaged { cloud_id; rtype };
                            detected_at = Cloud.now cloud;
                            occurred_at = None;
                          })
                    listing;
                  settle ()
              | Error (Cloud.Throttled after) -> retry after list_type
              | Error _ -> settle ())
      in
      list_type ()
    in
    if total = 0 then on_done (finish ())
    else begin
      List.iter read_resource tracked;
      if types <> [] then begin
        (* built once: each listed resource checks membership in
           O(log n) instead of scanning every known id *)
        let known_ids =
          Sset.of_list
            (List.map
               (fun (r : State.resource_state) -> r.State.cloud_id)
               tracked)
        in
        List.iter (list_unmanaged known_ids) types
      end
    end

  (* every read and listing settles before the cloud idles *)
  let scan (cloud : Cloud.t) ~(state : State.t) ?detect_unmanaged () =
    let result = ref None in
    start cloud ~engine:"drift-scanner" ~state ?detect_unmanaged
      ~alive:(fun () -> true) ~count_api:ignore
      ~on_done:(fun r -> result := Some r)
      ();
    Cloud.run_until_idle cloud;
    Option.get !result
end

(* ------------------------------------------------------------------ *)
(* Log-based detection (cloudless-native)                              *)
(* ------------------------------------------------------------------ *)

(** Is this activity-log entry a write not attributable to an IaC
    engine — i.e. a candidate drift signal? *)
let oob_write (e : Activity_log.entry) =
  let is_write =
    match e.Activity_log.op with
    | Activity_log.Log_create | Activity_log.Log_update
    | Activity_log.Log_delete ->
        true
    | Activity_log.Log_read | Activity_log.Log_failure _ -> false
  in
  let is_iac =
    match e.Activity_log.actor with
    | Activity_log.Iac_engine _ -> true
    | Activity_log.Oob_script _ | Activity_log.Cloud_internal -> false
  in
  is_write && not is_iac

(** Classify one out-of-band activity-log entry against [tracked], the
    deployment's row for the entry's cloud id ([None] when it tracks
    none): [Some event] when it constitutes drift for this deployment
    (a tracked resource deleted or actually diverged, or an unmanaged
    create), [None] when it is benign.  Shared by the poll-based
    {!Log_tailer} and the push-based subscription consumers — both
    detectors must flag exactly the same entries. *)
let event_of_entry (cloud : Cloud.t) ~(tracked : State.resource_state option)
    (e : Activity_log.entry) : event option =
  match (e.Activity_log.op, tracked) with
  | Activity_log.Log_delete, Some r ->
      Some
        {
          addr = Some r.State.addr;
          cloud_id = e.Activity_log.cloud_id;
          kind = Deleted_oob;
          detected_at = Cloud.now cloud;
          occurred_at = Some e.Activity_log.time;
        }
  | Activity_log.Log_update, Some r -> (
      (* the log tells us *that* it changed; fetch the detail lazily
         only for flagged resources *)
      match Cloud.lookup cloud e.Activity_log.cloud_id with
      | Some live ->
          let diff =
            Smap.fold
              (fun attr expected acc ->
                match Smap.find_opt attr (Cloud.attrs live) with
                | Some actual when not (Value.equal expected actual) ->
                    (attr, expected, actual) :: acc
                | _ -> acc)
              (comparable (State.attrs r)) []
          in
          (match diff with
          | (attr, expected, actual) :: _ ->
              Some
                {
                  addr = Some r.State.addr;
                  cloud_id = e.Activity_log.cloud_id;
                  kind = Attr_drift { attr; expected; actual };
                  detected_at = Cloud.now cloud;
                  occurred_at = Some e.Activity_log.time;
                }
          | [] -> None)
      | None -> None)
  | Activity_log.Log_create, None ->
      Some
        {
          addr = None;
          cloud_id = e.Activity_log.cloud_id;
          kind =
            Unmanaged
              {
                cloud_id = e.Activity_log.cloud_id;
                rtype = e.Activity_log.rtype;
              };
          detected_at = Cloud.now cloud;
          occurred_at = Some e.Activity_log.time;
        }
  | _ -> None

module Log_tailer = struct
  type t = {
    mutable cursor : int;  (** next log sequence number to consume *)
    mutable events_flagged : int;
  }

  let create () = { cursor = 0; events_flagged = 0 }

  (** Consume new activity-log entries and flag non-IaC writes that
      touch tracked resources (or create unmanaged ones).  Costs zero
      per-resource management reads — but each poll is one
      LookupEvents-style call against the log service, a cost the
      event-driven subscription engine (E15) does not pay. *)
  let poll t (cloud : Cloud.t) ~(state : State.t) : event list =
    let log = Cloud.log cloud in
    let entries = Activity_log.since log t.cursor in
    t.cursor <- Activity_log.length log;
    List.filter_map
      (fun (e : Activity_log.entry) ->
        if not (oob_write e) then None
        else begin
          t.events_flagged <- t.events_flagged + 1;
          event_of_entry cloud
            ~tracked:(State.find_by_cloud_id state e.Activity_log.cloud_id)
            e
        end)
      entries
end

(* ------------------------------------------------------------------ *)
(* Reconciliation                                                      *)
(* ------------------------------------------------------------------ *)

type reconciliation =
  | Accept_into_state  (** regenerate state/IaC to match the cloud *)
  | Revert_in_cloud  (** push the recorded value back *)
  | Notify of string  (** surface to a human *)

(** Default reconciliation policy from the paper: regenerate for benign
    attribute drift, notify for deletions and unmanaged resources. *)
let default_policy (e : event) : reconciliation =
  match e.kind with
  | Attr_drift _ -> Accept_into_state
  | Deleted_oob -> Notify "tracked resource deleted outside IaC"
  | Unmanaged _ -> Notify "unmanaged resource detected"

(** Apply a reconciliation decision, returning the updated state. *)
let reconcile (cloud : Cloud.t) ~(state : State.t) (e : event)
    (decision : reconciliation) : State.t =
  match (decision, e.addr) with
  | Accept_into_state, Some addr -> (
      match Cloud.lookup cloud e.cloud_id with
      | Some live -> State.update_attrs state addr (Cloud.attrs live)
      | None -> state)
  | Revert_in_cloud, Some addr -> (
      match State.find_opt state addr with
      | Some r -> (
          match
            Cloud.run_sync cloud
              ~actor:(Activity_log.Iac_engine "drift-reconciler")
              (Cloud.Update { cloud_id = e.cloud_id; attrs = comparable (State.attrs r) })
          with
          | Ok _ | Error _ -> state)
      | None -> state)
  | _, _ -> state
