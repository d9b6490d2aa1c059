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

    Format: JSONL, one self-contained entry per line, written through
    a flushed append so a crash can only ever truncate the *last*
    line; {!of_string} tolerates a torn tail.  Times are simulated
    seconds rendered with ["%.17g"] so a journal is byte-reproducible
    for a fixed seed and crash point.  Attribute maps and dependency
    lists are embedded as canonical HCL expression text — the same
    codec the state file uses, so the two records cannot disagree on
    value syntax. *)

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
          *committed* wave boundary.  Tenant names must not contain
          spaces (stored space-joined).  Replay and op analysis
          ignore it; appending one forces a {!barrier} in both
          modes. *)

(** The literal HCL text of an attribute map ({!Cloudless_hcl.Codec};
    unknowns are written as [null]), as the [attrs] field of an entry
    holds it once JSON-decoded. *)
val hcl_of_map : Value.t Smap.t -> string

(** Read {!hcl_of_map}'s text back.  Raises [Trace.Parse_error] when it
    holds a value other than an object, {!Cloudless_hcl.Codec.Error}
    or {!Cloudless_hcl.Lexer.Error} when it is not literal data. *)
val map_of_hcl : string -> Value.t Smap.t

(** The literal HCL list of address strings an entry's [deps] field
    holds. *)
val hcl_of_deps : Addr.t list -> string

(** Read {!hcl_of_deps}'s text back; errors as {!map_of_hcl}. *)
val deps_of_hcl : string -> Addr.t list

(** Render one entry (no trailing newline) straight into [buf] — the
    hot-path encoder: no per-field [sprintf], no intermediate string
    list.  Byte-identical to {!Reference.entry_to_line}. *)
val add_entry : Buffer.t -> entry -> unit

(** {!add_entry} into a fresh buffer. *)
val entry_to_line : entry -> string

(** Render entries as JSONL (inverse of {!of_string}). *)
val to_string : entry list -> string

(** The seed's string-building encoder, kept as the oracle the buffer
    encoder is asserted byte-identical against (tests, E16). *)
module Reference : sig
  val entry_to_line : entry -> string
  val to_string : entry list -> string
end

(** Parse a journal, dropping a torn tail: a crash mid-append can only
    truncate the final line, so parsing stops (without error) at the
    first line that does not decode. *)
val of_string : string -> entry list

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

(** Read a journal file from disk ({!of_string} semantics). *)
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
