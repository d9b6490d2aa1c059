(** Cloud activity log (Azure Activity Log / CloudTrail analogue).

    An append-only record of every management-plane operation,
    including those performed outside the IaC framework — the signal
    §3.5's log-based drift detector tails. *)

type actor =
  | Iac_engine of string  (** deployments driven by an IaC engine *)
  | Oob_script of string  (** out-of-band change (legacy script, portal) *)
  | Cloud_internal  (** provider-initiated events *)

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

type t

(** A registered push consumer (see {!subscribe}). *)
type subscription

val create : unit -> t

val append :
  t ->
  time:float ->
  actor:actor ->
  op:operation ->
  cloud_id:string ->
  rtype:string ->
  region:string ->
  detail:string ->
  entry

(** Total entries ever appended (= next sequence number). *)
val length : t -> int

(** Entries with [seq >= cursor], oldest first. *)
val since : t -> int -> entry list

(** All entries, oldest first. *)
val all : t -> entry list

(** Register a push consumer: every subsequently appended entry is
    delivered synchronously at append time, in subscription order —
    the multiplexed, event-driven alternative to per-consumer polling
    ({!since}).  [?from] first replays the recorded entries with
    [seq >= from], so a restarted consumer carries its cursor across
    the gap.  Delivery callbacks run inside {!append}; they must not
    themselves append re-entrantly. *)
val subscribe : t -> ?from:int -> (entry -> unit) -> subscription

(** Stop delivering to the subscription (idempotent). *)
val unsubscribe : t -> subscription -> unit

(** Currently active subscriptions. *)
val subscriber_count : t -> int

(** Total entries pushed to subscribers, replays included. *)
val deliveries : t -> int

val actor_to_string : actor -> string
val op_to_string : operation -> string

(** Write operations not attributable to an IaC engine — candidate
    drift events. *)
val non_iac_writes : t -> since:int -> entry list
