(** The write-ahead deployment journal (crash-safe applies).

    The state file ({!State}) is rewritten only after a whole apply —
    an engine that dies mid-deployment would lose every resource it
    created so far (the classic orphan problem).  The journal closes
    that window: the executor appends one {!Intent} entry *before*
    each cloud write and one {!Outcome} entry as soon as the cloud
    answers.  Every intent is flushed to disk before the call leaves
    the engine; outcomes ride the channel buffer until the next
    intent's flush (or close), so the on-disk record is never behind
    the cloud by more than the calls in flight plus at most the
    already-resolved outcomes since the last flush — all of which
    recovery treats as unresolved intents and hands to the adoption
    pass.

    Recovery replays the journal over the last persisted state
    ({!replay}) and hands the still-unresolved intents ({!unresolved})
    to the adoption pass (see [Cloudless_deploy.Recovery]), which
    checks the cloud's own activity log to decide adopt-vs-replan.

    Format: one literal HCL object per line, written and read by
    {!Cloudless_hcl.Codec}, the state file's codec, so the two records
    share one syntax and one set of escaping rules:

    {v { e = "intent", op = 3, addr = "aws_instance.g1[2]", kind = "create", rtype = "aws_instance", region = "us-east-1", prior = null, cursor = 0, deps = ["aws_subnet.g1"], attrs = { ami = "ami-1" }, time = 12.5 } v}

    Lines are written through a flushed append, so a crash can only
    ever tear the *last* line; {!of_string} tolerates a torn tail.
    Times are simulated seconds rendered with ["%.17g"] so a journal
    is byte-reproducible for a fixed seed and crash point. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap

type op_kind = Op_create | Op_update | Op_delete

val op_kind_to_string : op_kind -> string
val op_kind_of_string : string -> op_kind option

type intent = {
  op : int;  (** monotone per-run operation index (= crash index) *)
  iaddr : Addr.t;
  kind : op_kind;
  rtype : string;
  region : string;
  payload : Value.t Smap.t;
      (** what was (about to be) sent: full resolved attributes for a
          create, the attribute delta for an update, empty for a
          delete *)
  prior_cloud_id : string option;  (** update/delete target *)
  deps : Addr.t list;  (** recorded so adoption can rebuild the state row *)
  log_cursor : int;
      (** activity-log length when the intent was recorded; adoption
          only considers cloud events at or after this cursor *)
  itime : float;  (** simulated seconds *)
}

type outcome = {
  oop : int;  (** the {!intent.op} this resolves *)
  oaddr : Addr.t;
  okind : op_kind;
  ok : bool;
  cloud_id : string option;  (** created/updated/deleted cloud identity *)
  attrs : Value.t Smap.t;  (** cloud-returned attributes on success *)
  retried : bool;  (** failed, but the engine scheduled another attempt *)
  reason : string option;  (** failure detail *)
  otime : float;
}

type entry =
  | Run_started of { engine : string; changes : int; time : float }
  | Intent of intent
  | Outcome of outcome
  | Run_finished of { time : float }
  | Wave_mark of { wave : int; wphase : string; tenants : string list; wtime : float }
      (** E18 rollout boundary record: wave [wave] entered phase
          [wphase] ("started" | "committed" | "rolled_back" |
          "halted") over [tenants].  Written by the rollout driver's
          own journal so a mid-wave crash resumes from the last
          *committed* wave boundary.  Replay and op analysis ignore
          it; appending one forces a {!barrier} in both modes. *)

(** Render entries, one line each (inverse of {!of_string}).  An
    unknown attribute value is written as [null], a time that is not
    finite as [null], which reads back as nan. *)
val to_string : entry list -> string

(** Read a journal.  A crash can tear only the last line, which then
    has no newline: that line is dropped when it does not decode.  Any
    other line that does not decode raises a [state/corrupt-journal]
    {!Cloudless_error.Error} located at that line of [file] (default
    ["<journal>"]). *)
val of_string : ?file:string -> string -> entry list

(* ------------------------------------------------------------------ *)
(* The appender                                                        *)
(* ------------------------------------------------------------------ *)

type t

type mode =
  | Wal  (** flush every intent before its cloud call leaves the engine *)
  | Group of int
      (** group commit: buffer up to K intents behind one flush
          barrier.  The executor defers the matching cloud calls until
          {!barrier} runs, preserving the write-ahead invariant (no
          call issued whose intent is not durable) at a wider crash
          window: a crash can lose up to K buffered intents, but every
          one of them corresponds to a cloud call that was *never
          issued* — recovery sees nothing of them (no journal line, no
          cloud activity) and simply replans them.  Flushed intents
          without outcomes are adopted exactly as in {!Wal} mode.
          Batches also flush on run markers, at {!close}, and whenever
          the executor forces a {!barrier}. *)

(** A live journal.  With [path] appended entries are written through
    {!barrier} flushes — every intent immediately in {!Wal} mode
    (default), batched in {!Group} mode; without, the journal is
    memory-only (tests, benchmarks measuring pure engine behaviour).
    [retain] (default [true]) keeps the in-memory entry list
    {!entries} serves; pass [false] for huge benchmark runs —
    {!entries} then answers [[]], so resume-from-journal flows must
    not use it.  Raises [Invalid_argument] for [Group k] with
    [k < 1]. *)
val create : ?path:string -> ?retain:bool -> ?mode:mode -> unit -> t

val mode : t -> mode

(** Append one entry.  {!Wal} mode flushes intents and run markers
    before returning; {!Group} mode buffers until the batch cap, a run
    marker, or an explicit {!barrier}. *)
val append : t -> entry -> unit

(** Write the pending batch to the sink and flush it.  The executor's
    group-commit path calls this before releasing the deferred cloud
    calls of the batch; no-op when nothing is pending. *)
val barrier : t -> unit

(** Model engine death at this instant: discard everything appended
    since the last {!barrier} — on disk and in the retained entry
    list — and close the sink.  The file is left exactly as a crash
    would leave it (the durable barrier prefix).  Disk-fidelity crash
    tests use this instead of {!close}, whose final barrier would
    leak the doomed batch. *)
val abandon : t -> unit

(** All entries appended so far, in order. *)
val entries : t -> entry list

(** [max_op (entries t)] in O(1): the journal tracks it as entries are
    appended (and recomputes it when {!abandon} drops a tail).  An
    engine seeds its op counter from here; 0 with [~retain:false]. *)
val last_op : t -> int

(** Close the file sink (idempotent; memory-only journals no-op). *)
val close : t -> unit

(** Read a journal file from disk ({!of_string} semantics, errors
    located in the file). *)
val load : string -> entry list

(* ------------------------------------------------------------------ *)
(* Replay & analysis                                                   *)
(* ------------------------------------------------------------------ *)

type op_status = { intent : intent; resolution : outcome option }

(** Highest op index recorded.  A resumed run seeds its op counter from
    here so ids stay unique across the segments of one journal (each
    engine incarnation appends its own [Run_started] … sequence). *)
val max_op : entry list -> int

(** Every intent in op order, paired with its final outcome ([None] =
    the crash window: intent durable, result unknown). *)
val analyze : entry list -> op_status list

(** Intents whose result never made it to the journal, in op order. *)
val unresolved : entry list -> intent list

(** [true] when the journal's last run ran to completion — nothing to
    recover. *)
val finished : entry list -> bool

(** Fold the journal's *known* outcomes over [state]: successful
    creates are added under their recorded cloud id, updates patch
    attributes, deletes remove the row (only while it still points at
    the deleted cloud id — a create-before-destroy replace deletes the
    *old* identity after the new one was recorded).  Replay is
    idempotent: re-applying an already-merged journal reproduces the
    same state, which makes crash-during-recovery safe. *)
val replay : State.t -> entry list -> State.t
