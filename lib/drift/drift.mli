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

val kind_to_string : kind -> string
val pp_event : Format.formatter -> event -> unit

(** Is this activity-log entry a write not attributable to an IaC
    engine — i.e. a candidate drift signal? *)
val oob_write : Activity_log.entry -> bool

(** Classify one out-of-band activity-log entry against [tracked], the
    deployment's row for the entry's cloud id ([None] when it tracks
    none): [Some event] when it constitutes drift for this deployment
    (a tracked resource deleted or actually diverged, or an unmanaged
    create), [None] when it is benign.  Shared by the poll-based
    {!Log_tailer}, which looks the row up in its state, and the
    push-based subscription consumers, which hold it in their owner
    index — both detectors must flag exactly the same entries. *)
val event_of_entry :
  Cloud.t ->
  tracked:State.resource_state option ->
  Activity_log.entry ->
  event option

module Scanner : sig
  type scan_result = {
    events : event list;
    api_reads : int;  (** management API calls consumed *)
    duration : float;
    throttled : int;  (** reads that had to be retried due to 429 *)
  }

  (** One full sweep, shaped for an event loop that others share:
      read every tracked resource and compare it with state (attributes
      other than [arn]), and with [detect_unmanaged] list every tracked
      type for resources state does not know.  Returns at once; each
      call is submitted as [engine] and counted through [count_api],
      a throttled call retries after the provider's retry-after, every
      callback first checks [alive], and [on_done] receives the result
      once every read and listing has settled.  [duration] runs from
      the start to that instant. *)
  val start :
    Cloud.t ->
    engine:string ->
    state:State.t ->
    ?detect_unmanaged:bool ->
    alive:(unit -> bool) ->
    count_api:(int -> unit) ->
    on_done:(scan_result -> unit) ->
    unit ->
    unit

  (** {!start} as the ["drift-scanner"] engine, then drive the
      simulator to idle. *)
  val scan :
    Cloud.t -> state:State.t -> ?detect_unmanaged:bool -> unit -> scan_result
end

module Log_tailer : sig
  (** Concrete on purpose: a caller may re-seat [cursor] directly at
      a recovery point. *)
  type t = {
    mutable cursor : int;  (** next log sequence number to consume *)
    mutable events_flagged : int;
  }

  val create : unit -> t

  (** Consume new activity-log entries and flag non-IaC writes that
      touch tracked resources (or create unmanaged ones).  Costs zero
      per-resource management reads — but each poll is one
      LookupEvents-style call against the log service, a cost the
      event-driven subscription engine (E15) does not pay. *)
  val poll : t -> Cloud.t -> state:State.t -> event list
end

type reconciliation =
  | Accept_into_state  (** regenerate state/IaC to match the cloud *)
  | Revert_in_cloud  (** push the recorded value back *)
  | Notify of string  (** surface to a human *)

(** Default reconciliation policy from the paper: regenerate for benign
    attribute drift, notify for deletions and unmanaged resources. *)
val default_policy : event -> reconciliation

(** Apply a reconciliation decision, returning the updated state. *)
val reconcile :
  Cloud.t -> state:State.t -> event -> reconciliation -> State.t
