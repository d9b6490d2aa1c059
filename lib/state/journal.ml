(** The write-ahead deployment journal (crash-safe applies).

    The state file ({!State}) is rewritten only after a whole apply —
    an engine that dies mid-deployment would lose every resource it
    created so far (the classic orphan problem).  The journal closes
    that window: the executor appends one {!Intent} entry *before*
    each cloud write and one {!Outcome} entry as soon as the cloud
    answers, flushing each line to disk immediately, so the on-disk
    record is never behind the cloud by more than the set of calls
    actually in flight at the instant of death.

    Recovery replays the journal over the last persisted state
    ({!replay}) and hands the still-unresolved intents ({!unresolved})
    to the adoption pass (see [Cloudless_deploy.Recovery]), which
    checks the cloud's own activity log to decide adopt-vs-replan.

    Format: one literal HCL object per line, written and read by
    {!Cloudless_hcl.Codec}, the state file's codec, so the two records
    share one syntax and one set of escaping rules.  Lines are written
    through a flushed append, so a crash can only ever tear the *last*
    line; {!of_string} tolerates a torn tail.  Times are simulated
    seconds rendered with ["%.17g"] so a journal is byte-reproducible
    for a fixed seed and crash point. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Codec = Cloudless_hcl.Codec
module Lexer = Cloudless_hcl.Lexer

type op_kind = Op_create | Op_update | Op_delete

let op_kind_to_string = function
  | Op_create -> "create"
  | Op_update -> "update"
  | Op_delete -> "delete"

let op_kind_of_string = function
  | "create" -> Some Op_create
  | "update" -> Some Op_update
  | "delete" -> Some Op_delete
  | _ -> None

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
          *committed* wave boundary. *)

(* ------------------------------------------------------------------ *)
(* Serialization (one literal object per line)                         *)
(* ------------------------------------------------------------------ *)

(* [, name = ] before a field's value. *)
let field buf name =
  Buffer.add_string buf ", ";
  Buffer.add_string buf name;
  Buffer.add_string buf " = "

let add_str buf name s =
  field buf name;
  Codec.add_string buf s

let add_int buf name n =
  field buf name;
  Buffer.add_string buf (string_of_int n)

let add_bool buf name b =
  field buf name;
  Buffer.add_string buf (if b then "true" else "false")

let add_opt buf name = function
  | Some s -> add_str buf name s
  | None ->
      field buf name;
      Buffer.add_string buf "null"

let add_strings buf name f xs =
  field buf name;
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      Codec.add_string buf (f x))
    xs;
  Buffer.add_char buf ']'

let add_attrs buf name m =
  field buf name;
  Codec.add_map buf m

(* A time keeps all 17 significant digits, so a journal is
   byte-reproducible for a fixed seed and crash point; a time that is
   not finite is written [null]. *)
let add_time buf t =
  field buf "time";
  Buffer.add_string buf
    (if Float.is_finite t then Printf.sprintf "%.17g" t else "null")

let add_entry buf entry =
  Buffer.add_string buf "{ e = ";
  (match entry with
  | Run_started { engine; changes; time } ->
      Buffer.add_string buf "\"start\"";
      add_str buf "engine" engine;
      add_int buf "changes" changes;
      add_time buf time
  | Intent i ->
      Buffer.add_string buf "\"intent\"";
      add_int buf "op" i.op;
      add_str buf "addr" (Addr.to_string i.iaddr);
      add_str buf "kind" (op_kind_to_string i.kind);
      add_str buf "rtype" i.rtype;
      add_str buf "region" i.region;
      add_opt buf "prior" i.prior_cloud_id;
      add_int buf "cursor" i.log_cursor;
      add_strings buf "deps" Addr.to_string i.deps;
      add_attrs buf "attrs" i.payload;
      add_time buf i.itime
  | Outcome o ->
      Buffer.add_string buf "\"outcome\"";
      add_int buf "op" o.oop;
      add_str buf "addr" (Addr.to_string o.oaddr);
      add_str buf "kind" (op_kind_to_string o.okind);
      add_bool buf "ok" o.ok;
      add_opt buf "cloud_id" o.cloud_id;
      add_bool buf "retried" o.retried;
      add_opt buf "reason" o.reason;
      add_attrs buf "attrs" o.attrs;
      add_time buf o.otime
  | Run_finished { time } ->
      Buffer.add_string buf "\"finish\"";
      add_time buf time
  | Wave_mark { wave; wphase; tenants; wtime } ->
      Buffer.add_string buf "\"wave\"";
      add_int buf "wave" wave;
      add_str buf "phase" wphase;
      add_strings buf "tenants" Fun.id tenants;
      add_time buf wtime);
  Buffer.add_string buf " }"

let to_string entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      add_entry buf e;
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

(* A line that reads as literal data but not as an entry. *)
exception Bad_entry of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_entry msg)) fmt

let entry_of_value (v : Value.t) =
  let fields =
    match v with
    | Value.Vmap m -> m
    | v -> bad "an entry must be an object, not %s" (Value.type_name v)
  in
  let get name =
    match Smap.find_opt name fields with
    | Some v -> v
    | None -> bad "missing %s" name
  in
  let wrong name what =
    bad "%s must be %s, not %s" name what (Value.type_name (get name))
  in
  let str name =
    match get name with Value.Vstring s -> s | _ -> wrong name "a string"
  in
  let str_opt name =
    match get name with
    | Value.Vstring s -> Some s
    | Value.Vnull -> None
    | _ -> wrong name "a string or null"
  in
  let int name =
    match get name with Value.Vint n -> n | _ -> wrong name "an integer"
  in
  let bool name =
    match get name with Value.Vbool b -> b | _ -> wrong name "a boolean"
  in
  (* an integral time reads as an int *)
  let time () =
    match get "time" with
    | Value.Vfloat t -> t
    | Value.Vint n -> float_of_int n
    | Value.Vnull -> Float.nan
    | _ -> wrong "time" "a number"
  in
  let strings name =
    match get name with
    | Value.Vlist vs ->
        List.map
          (function Value.Vstring s -> s | _ -> wrong name "a list of strings")
          vs
    | _ -> wrong name "a list of strings"
  in
  let address s =
    match Addr.of_string s with Some a -> a | None -> bad "bad address %S" s
  in
  let kind () =
    let s = str "kind" in
    match op_kind_of_string s with Some k -> k | None -> bad "bad op kind %S" s
  in
  let attrs () =
    match get "attrs" with Value.Vmap m -> m | _ -> wrong "attrs" "an object"
  in
  match str "e" with
  | "start" ->
      Run_started
        { engine = str "engine"; changes = int "changes"; time = time () }
  | "intent" ->
      Intent
        {
          op = int "op";
          iaddr = address (str "addr");
          kind = kind ();
          rtype = str "rtype";
          region = str "region";
          payload = attrs ();
          prior_cloud_id = str_opt "prior";
          deps = List.map address (strings "deps");
          log_cursor = int "cursor";
          itime = time ();
        }
  | "outcome" ->
      Outcome
        {
          oop = int "op";
          oaddr = address (str "addr");
          okind = kind ();
          ok = bool "ok";
          cloud_id = str_opt "cloud_id";
          attrs = attrs ();
          retried = bool "retried";
          reason = str_opt "reason";
          otime = time ();
        }
  | "finish" -> Run_finished { time = time () }
  | "wave" ->
      Wave_mark
        {
          wave = int "wave";
          wphase = str "phase";
          tenants = strings "tenants";
          wtime = time ();
        }
  | e -> bad "unknown entry kind %S" e

(** Read a journal.  A crash can tear only the last line, which then
    has no newline: that line is dropped when it does not decode.  Any
    other line that does not decode raises a [state/corrupt-journal]
    diagnostic located at that line of [file]. *)
let of_string ?(file = "<journal>") src =
  let n = String.length src in
  (* entries repeat the attribute key sets of their resource types *)
  let shapes = Codec.shapes () in
  let rec go acc first =
    if first >= n then List.rev acc
    else
      let stop =
        match String.index_from_opt src first '\n' with Some i -> i | None -> n
      in
      let line = String.sub src first (stop - first) in
      match entry_of_value (Codec.read_value ~shapes ~file line) with
      | e -> go (e :: acc) (stop + 1)
      | exception
          ( Cloudless_error.Error { stage = Syntax; message = msg; _ }
          | Bad_entry msg ) ->
          if stop = n then List.rev acc
          else
            Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.State_io
              ~code:"corrupt-journal"
              ~span:(Codec.span ~file src first stop)
              "journal: %s" msg
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* The appender                                                        *)
(* ------------------------------------------------------------------ *)

type mode =
  | Wal  (** flush every intent before its cloud call leaves the engine *)
  | Group of int
      (** group commit: buffer up to K intents behind one flush
          barrier.  The executor defers the matching cloud calls until
          {!barrier} runs, so the write-ahead invariant (no call
          issued whose intent is not durable) still holds — the trade
          is a wider crash window: up to K *not-yet-issued* ops can
          vanish with the batch.  Recovery sees nothing of them (no
          intent, no cloud activity) and simply replans them. *)

type t = {
  mutable entries_rev : entry list;
  mutable n_entries : int;  (** length of [entries_rev] *)
  mutable n_durable : int;  (** entries up to the last barrier *)
  mutable last_op : int;  (** {!max_op} of [entries_rev], kept as it grows *)
  retain : bool;
  mode : mode;
  batch : Buffer.t;
      (** rendered lines since the last barrier.  Nothing reaches the
          sink's own buffer until {!barrier} writes and flushes the
          whole batch, so the durable prefix of the file is exactly
          the barrier history — {!abandon} can model a crash
          faithfully by dropping the batch. *)
  mutable batched_intents : int;
  sink : out_channel option;
  mutable closed : bool;
}

let mode t = t.mode

(** Write the pending batch through to the sink and flush it.  In
    {!Wal} mode this runs implicitly on every intent/run-marker append;
    in {!Group} mode the executor calls it before releasing deferred
    cloud calls (and it self-triggers at the batch cap). *)
let barrier t =
  (match t.sink with
  | Some oc when (not t.closed) && Buffer.length t.batch > 0 ->
      Buffer.output_buffer oc t.batch;
      flush oc
  | _ -> ());
  Buffer.clear t.batch;
  t.batched_intents <- 0;
  t.n_durable <- t.n_entries

(** A live journal.  With [path] appended entries are written through
    {!barrier} flushes (every intent in {!Wal} mode, batched in
    {!Group} mode); without, the journal is memory-only (tests,
    benchmarks measuring pure engine behaviour).  [retain:false] drops
    the in-memory copy — {!entries} then answers [[]] — for million-op
    benchmark runs where keeping every entry alive would dominate the
    heap. *)
let create ?path ?(retain = true) ?(mode = Wal) () =
  (match mode with
  | Group k when k < 1 -> invalid_arg "Journal.create: Group batch must be >= 1"
  | _ -> ());
  {
    entries_rev = [];
    n_entries = 0;
    n_durable = 0;
    last_op = 0;
    retain;
    mode;
    batch = Buffer.create 512;
    batched_intents = 0;
    sink = Option.map (fun p -> open_out_bin p) path;
    closed = false;
  }

let entry_op = function
  | Intent i -> i.op
  | Outcome o -> o.oop
  | Run_started _ | Run_finished _ | Wave_mark _ -> 0

(** Highest op index recorded.  A resumed run seeds its op counter from
    here so ids stay unique across the segments of one journal (each
    engine incarnation appends its own [Run_started] … sequence). *)
let max_op entries = List.fold_left (fun acc e -> max acc (entry_op e)) 0 entries

let append t entry =
  if t.retain then begin
    t.entries_rev <- entry :: t.entries_rev;
    t.n_entries <- t.n_entries + 1;
    t.last_op <- max t.last_op (entry_op entry)
  end;
  if not t.closed then begin
    (match t.sink with
    | Some _ ->
        add_entry t.batch entry;
        Buffer.add_char t.batch '\n'
    | None -> ());
    match (t.mode, entry) with
    | Wal, Outcome _ ->
        (* an outcome may ride in the batch until the next intent's
           barrier (or {!close}): losing one to a crash merely
           re-creates the unresolved-intent window the adoption pass
           ([Cloudless_deploy.Recovery]) resolves from the cloud's own
           activity log.  This halves the syscalls of a journaled
           apply. *)
        ()
    | Wal, (Run_started _ | Intent _ | Run_finished _ | Wave_mark _) ->
        barrier t
    | Group k, Intent _ ->
        t.batched_intents <- t.batched_intents + 1;
        if t.batched_intents >= k then barrier t
    | Group _, (Run_started _ | Run_finished _ | Wave_mark _) -> barrier t
    | Group _, Outcome _ -> ()
  end

let entries t = List.rev t.entries_rev
let last_op t = t.last_op

let close t =
  if not t.closed then begin
    barrier t;
    t.closed <- true;
    match t.sink with Some oc -> close_out oc | None -> ()
  end

(** Model engine death: discard everything appended since the last
    {!barrier} — on disk *and* in the retained entry list — then close
    the sink.  The file is left exactly as a crash at this instant
    would leave it (the durable barrier prefix; no torn tail, which
    {!of_string} would also tolerate).  The disk-fidelity crash tests
    use this instead of {!close}, whose final barrier would leak the
    doomed batch into the journal. *)
let abandon t =
  if not t.closed then begin
    Buffer.clear t.batch;
    t.batched_intents <- 0;
    if t.retain && t.n_entries > t.n_durable then begin
      let drop = t.n_entries - t.n_durable in
      let rec chop k l = if k = 0 then l else chop (k - 1) (List.tl l) in
      t.entries_rev <- chop drop t.entries_rev;
      t.n_entries <- t.n_durable;
      t.last_op <- max_op t.entries_rev
    end;
    t.closed <- true;
    match t.sink with Some oc -> close_out oc | None -> ()
  end

let load path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string ~file:path src

(* ------------------------------------------------------------------ *)
(* Replay & analysis                                                   *)
(* ------------------------------------------------------------------ *)

type op_status = { intent : intent; resolution : outcome option }

(** Every intent in op order, paired with its final outcome ([None] =
    the crash window: intent durable, result unknown). *)
let analyze entries =
  let tbl : (int, intent * outcome option) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (function
      | Intent i ->
          Hashtbl.replace tbl i.op (i, None);
          order := i.op :: !order
      | Outcome o -> (
          match Hashtbl.find_opt tbl o.oop with
          | Some (i, _) -> Hashtbl.replace tbl o.oop (i, Some o)
          | None -> ())
      | Run_started _ | Run_finished _ | Wave_mark _ -> ())
    entries;
  List.rev_map
    (fun op ->
      let intent, resolution = Hashtbl.find tbl op in
      { intent; resolution })
    !order

(** Intents whose result never made it to the journal, in op order. *)
let unresolved entries =
  List.filter_map
    (fun s -> if s.resolution = None then Some s.intent else None)
    (analyze entries)

(** [true] when the journal's last run ran to completion — nothing to
    recover. *)
let finished entries =
  match List.rev entries with Run_finished _ :: _ -> true | _ -> false

(** Fold the journal's *known* outcomes over [state]: successful
    creates are added under their recorded cloud id, updates patch
    attributes, deletes remove the row (only while it still points at
    the deleted cloud id — a create-before-destroy replace deletes the
    *old* identity after the new one was recorded).  Replay is
    idempotent: re-applying an already-merged journal reproduces the
    same state, which makes crash-during-recovery safe. *)
let replay state entries =
  let intents : (int, intent) Hashtbl.t = Hashtbl.create 64 in
  List.fold_left
    (fun st entry ->
      match entry with
      | Run_started _ | Run_finished _ | Wave_mark _ -> st
      | Intent i ->
          Hashtbl.replace intents i.op i;
          st
      | Outcome o when not o.ok -> st
      | Outcome o -> (
          match o.okind with
          | Op_create -> (
              match (o.cloud_id, Hashtbl.find_opt intents o.oop) with
              | Some cloud_id, Some i ->
                  State.add st
                    {
                      State.addr = o.oaddr;
                      cloud_id;
                      rtype = i.rtype;
                      region = i.region;
                      recorded = State.Recorded.of_map o.attrs;
                      deps = i.deps;
                    }
              | _ -> st)
          | Op_update -> State.update_attrs st o.oaddr o.attrs
          | Op_delete -> (
              match (State.find_opt st o.oaddr, o.cloud_id) with
              | Some r, Some gone when r.State.cloud_id = gone ->
                  State.remove st o.oaddr
              | _ -> st)))
    state entries
