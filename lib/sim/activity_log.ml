(** Cloud activity log.

    Models Azure Monitor Activity Log / GCP Cloud Audit Logs: an
    append-only record of every management-plane operation, including
    those performed *outside* the IaC framework.  §3.5's log-based
    drift detector tails this log instead of scanning the deployment. *)

type actor =
  | Iac_engine of string  (** deployments driven by an IaC engine run id *)
  | Oob_script of string  (** out-of-band change, e.g. a legacy script *)
  | Cloud_internal  (** provider-initiated events (e.g. maintenance) *)

type operation =
  | Log_create
  | Log_update
  | Log_delete
  | Log_read
  | Log_failure of string

type entry = {
  seq : int;  (** monotone sequence number, the cursor for tailing *)
  time : float;
  actor : actor;
  op : operation;
  cloud_id : string;
  rtype : string;
  region : string;
  detail : string;
}

type subscription = { deliver : entry -> unit; mutable active : bool }

type t = {
  mutable entries : entry list;  (** newest first *)
  mutable next_seq : int;
  mutable subs : subscription list;
      (** oldest subscription first = delivery order *)
  mutable deliveries : int;
}

let create () = { entries = []; next_seq = 0; subs = []; deliveries = 0 }

(* Entries are newest-first with strictly decreasing [seq], so the tail
   read stops at the first entry below the cursor instead of filtering
   the whole history — log-tailer polls and subscription replays both
   rely on this being O(new entries). *)
let since t cursor =
  let rec take acc = function
    | e :: rest when e.seq >= cursor -> take (e :: acc) rest
    | _ -> acc
  in
  take [] t.entries

let append t ~time ~actor ~op ~cloud_id ~rtype ~region ~detail =
  let e =
    { seq = t.next_seq; time; actor; op; cloud_id; rtype; region; detail }
  in
  t.next_seq <- t.next_seq + 1;
  t.entries <- e :: t.entries;
  List.iter
    (fun s ->
      if s.active then begin
        t.deliveries <- t.deliveries + 1;
        s.deliver e
      end)
    t.subs;
  e

let length t = t.next_seq

(** Register a push consumer: every entry appended from now on is
    delivered synchronously, in subscription order (deterministic fan-
    out).  [?from] replays the already-recorded entries with
    [seq >= from] first, so a resumed consumer can carry its cursor
    over a restart without losing events. *)
let subscribe t ?from deliver =
  let s = { deliver; active = true } in
  t.subs <- t.subs @ [ s ];
  (match from with
  | Some cursor when cursor < t.next_seq ->
      List.iter
        (fun e ->
          t.deliveries <- t.deliveries + 1;
          deliver e)
        (since t cursor)
  | _ -> ());
  s

(** Stop delivering to [s] (idempotent). *)
let unsubscribe t s =
  s.active <- false;
  t.subs <- List.filter (fun s' -> s'.active) t.subs

let subscriber_count t = List.length t.subs

(** Total entries pushed to subscribers (replays included) — the
    fan-out bill a fleet's metrics surface. *)
let deliveries t = t.deliveries

(** All entries, oldest first. *)
let all t = List.rev t.entries

let actor_to_string = function
  | Iac_engine run -> "iac:" ^ run
  | Oob_script name -> "oob:" ^ name
  | Cloud_internal -> "cloud"

let op_to_string = function
  | Log_create -> "create"
  | Log_update -> "update"
  | Log_delete -> "delete"
  | Log_read -> "read"
  | Log_failure msg -> "failure(" ^ msg ^ ")"

let pp_entry ppf e =
  Fmt.pf ppf "[%07.1f] #%d %s %s %s (%s in %s) %s" e.time e.seq
    (actor_to_string e.actor) (op_to_string e.op) e.cloud_id e.rtype e.region
    e.detail

(** Entries not attributable to any IaC engine — candidate drift
    events. *)
let non_iac_writes t ~since:cursor =
  List.filter
    (fun e ->
      match (e.actor, e.op) with
      | Iac_engine _, _ -> false
      | _, (Log_create | Log_update | Log_delete) -> true
      | _, (Log_read | Log_failure _) -> false)
    (since t cursor)
