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
module Codec = Cloudless_hcl.Codec
module Trace = Cloudless_obs.Trace

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
          *committed* wave boundary.  Tenant names are identifiers
          (no spaces), so the list is stored space-joined. *)

(* ------------------------------------------------------------------ *)
(* Serialization (JSONL; strings, ints, %.17g floats and nulls only)   *)
(* ------------------------------------------------------------------ *)

let hcl_of_map m =
  let buf = Buffer.create 64 in
  Codec.add_map buf m;
  Buffer.contents buf

let map_of_hcl s =
  match Codec.read_value ~file:"<journal>" s with
  | Value.Vmap m -> m
  | _ -> raise (Trace.Parse_error "journal: attrs is not an object literal")

let hcl_of_deps deps =
  let buf = Buffer.create 64 in
  Codec.add_value buf
    (Value.Vlist (List.map (fun d -> Value.Vstring (Addr.to_string d)) deps));
  Buffer.contents buf

let deps_of_hcl s =
  match Codec.read_value ~file:"<journal>" s with
  | Value.Vlist vs ->
      List.map
        (fun v ->
          match Addr.of_string (Value.to_string v) with
          | Some a -> a
          | None -> raise (Trace.Parse_error "journal: bad dep address"))
        vs
  | _ -> raise (Trace.Parse_error "journal: deps is not a list literal")

(* Direct-to-buffer encoder: each entry is rendered straight into the
   caller's [Buffer] — no per-field [Printf.sprintf], no field list, no
   [String.concat] — so a journaled apply allocates almost nothing per
   line beyond the HCL attribute text.  Byte-identical to the seed's
   string-building encoder, kept below as {!Reference.entry_to_line}
   and asserted equal by the test suite. *)

let add_escaped buf s =
  (* Trace.json_escape, written into the caller's buffer.  Clean runs
     (the overwhelmingly common case: identifiers, cloud ids, region
     names) are copied with one [add_substring] instead of a per-char
     push — at a million journal lines the difference is the bench. *)
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if
      match c with
      | '"' | '\\' -> true
      | c -> Char.code c < 0x20
    then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run)

let add_key buf k =
  Buffer.add_char buf '"';
  Buffer.add_string buf k;
  Buffer.add_string buf "\":"

let add_str buf k v =
  add_key buf k;
  Buffer.add_char buf '"';
  add_escaped buf v;
  Buffer.add_char buf '"'

let add_int buf k v =
  add_key buf k;
  Buffer.add_string buf (string_of_int v)

(* [Trace.float_lit] is a ["%.17g"] sprintf — ~400ns, the single most
   expensive token on a journal line.  Simulated timestamps repeat
   heavily (every op submitted in one ready burst shares the clock),
   so a one-slot memo absorbs most of them.  The slot is domain-local:
   the sharded apply path is journal-free today, but nothing should
   quietly break if two domains ever journal concurrently.  Bitwise
   comparison keeps the memo exact (nan, -0.); the initial slot pairs
   nan's bits with the "null" that [float_lit] renders nan as. *)
let float_memo =
  Domain.DLS.new_key (fun () ->
      (ref (Int64.bits_of_float Float.nan), ref "null"))

let add_float buf k v =
  add_key buf k;
  let bits, lit = Domain.DLS.get float_memo in
  let b = Int64.bits_of_float v in
  if b <> !bits then begin
    bits := b;
    lit := Trace.float_lit v
  end;
  Buffer.add_string buf !lit

let add_bool buf k v = add_int buf k (if v then 1 else 0)

let add_opt buf k = function
  | None ->
      add_key buf k;
      Buffer.add_string buf "null"
  | Some s -> add_str buf k s

let sep buf = Buffer.add_char buf ','

(* Fused attribute/deps emitters: the composition of {!hcl_of_map} /
   {!hcl_of_deps} (the Codec's literal text) with {!add_escaped},
   performed in a single pass with no intermediate strings — at fleet
   scale the two-stage pipeline above is the whole cost of a
   journaled apply.  Byte equality with the composed pipeline (and
   hence with {!Reference.entry_to_line}) is asserted by the test
   suite over arbitrary values. *)

(* One character of a rendered HCL string literal, JSON-escaped:
   [Codec.add_string_body] then [Trace.json_escape], composed.
   E.g. a literal quote becomes backslash-quote in HCL, and each of
   those two bytes is then escaped again for JSON (four bytes out). *)
let add_hcl_str_body buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if
      match c with
      | '"' | '\\' -> true
      | '$' -> i + 1 < n && s.[i + 1] = '{'
      | c -> Char.code c < 0x20
    then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\\\\\""
      | '\\' -> Buffer.add_string buf "\\\\\\\\"
      | '\n' -> Buffer.add_string buf "\\\\n"
      | '\t' -> Buffer.add_string buf "\\\\t"
      | '$' -> Buffer.add_string buf "\\\\$"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run)

(* An HCL string literal (quotes included) as it appears inside a JSON
   string field. *)
let add_hcl_string buf s =
  Buffer.add_string buf "\\\"";
  add_hcl_str_body buf s;
  Buffer.add_string buf "\\\""

(* [Codec.add_value]'s text for a value ([Vunknown] renders as
   [null]), JSON-escaped. *)
let rec add_hcl_value buf (v : Value.t) =
  match v with
  | Value.Vunknown _ | Value.Vnull -> Buffer.add_string buf "null"
  | Value.Vbool b -> Buffer.add_string buf (string_of_bool b)
  | Value.Vint n -> Buffer.add_string buf (string_of_int n)
  | Value.Vfloat f -> Buffer.add_string buf (Value.float_to_string f)
  | Value.Vstring s -> add_hcl_string buf s
  | Value.Vlist vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add_hcl_value buf v)
        vs;
      Buffer.add_char buf ']'
  | Value.Vmap m -> add_hcl_map_value buf m

and add_hcl_map_value buf m =
  Buffer.add_string buf "{ ";
  let first = ref true in
  Smap.iter
    (fun k v ->
      if !first then first := false else Buffer.add_string buf ", ";
      if Codec.ident_like k then Buffer.add_string buf k
      else add_hcl_string buf k;
      Buffer.add_string buf " = ";
      add_hcl_value buf v)
    m;
  Buffer.add_string buf " }"

let add_attrs buf k m =
  add_key buf k;
  Buffer.add_char buf '"';
  add_hcl_map_value buf m;
  Buffer.add_char buf '"'

(* Address fast path: almost every address is [rtype.rname] or
   [rtype.rname[i]] out of plain identifiers — no module path, no data
   mode, nothing to escape in either the JSON or the HCL-string
   context — so it can be emitted directly, skipping the
   [Addr.to_string] sprintf.  Anything unusual falls back to the
   rendered string. *)
let ident_clean s =
  String.for_all
    (fun c -> Char.code c >= 0x20 && c <> '"' && c <> '\\' && c <> '$')
    s

let addr_plain (a : Addr.t) =
  a.Addr.module_path = []
  && a.Addr.mode = Addr.Managed
  && (match a.Addr.key with Addr.Kstr _ -> false | _ -> true)
  && ident_clean a.Addr.rtype && ident_clean a.Addr.rname

let add_addr_body buf (a : Addr.t) =
  Buffer.add_string buf a.Addr.rtype;
  Buffer.add_char buf '.';
  Buffer.add_string buf a.Addr.rname;
  match a.Addr.key with
  | Addr.Knone -> ()
  | Addr.Kint i ->
      Buffer.add_char buf '[';
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ']'
  | Addr.Kstr _ -> assert false (* excluded by [addr_plain] *)

let add_addr buf k a =
  add_key buf k;
  Buffer.add_char buf '"';
  if addr_plain a then add_addr_body buf a
  else add_escaped buf (Addr.to_string a);
  Buffer.add_char buf '"'

let add_deps buf k deps =
  add_key buf k;
  Buffer.add_string buf "\"[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ", ";
      if addr_plain d then begin
        Buffer.add_string buf "\\\"";
        add_addr_body buf d;
        Buffer.add_string buf "\\\""
      end
      else add_hcl_string buf (Addr.to_string d))
    deps;
  Buffer.add_string buf "]\""

let add_entry buf entry =
  Buffer.add_char buf '{';
  (match entry with
  | Run_started { engine; changes; time } ->
      add_str buf "e" "start";
      sep buf;
      add_str buf "engine" engine;
      sep buf;
      add_int buf "changes" changes;
      sep buf;
      add_float buf "time" time
  | Intent i ->
      add_str buf "e" "intent";
      sep buf;
      add_int buf "op" i.op;
      sep buf;
      add_addr buf "addr" i.iaddr;
      sep buf;
      add_str buf "kind" (op_kind_to_string i.kind);
      sep buf;
      add_str buf "rtype" i.rtype;
      sep buf;
      add_str buf "region" i.region;
      sep buf;
      add_opt buf "prior" i.prior_cloud_id;
      sep buf;
      add_int buf "cursor" i.log_cursor;
      sep buf;
      add_deps buf "deps" i.deps;
      sep buf;
      add_attrs buf "attrs" i.payload;
      sep buf;
      add_float buf "time" i.itime
  | Outcome o ->
      add_str buf "e" "outcome";
      sep buf;
      add_int buf "op" o.oop;
      sep buf;
      add_addr buf "addr" o.oaddr;
      sep buf;
      add_str buf "kind" (op_kind_to_string o.okind);
      sep buf;
      add_bool buf "ok" o.ok;
      sep buf;
      add_opt buf "cloud_id" o.cloud_id;
      sep buf;
      add_bool buf "retried" o.retried;
      sep buf;
      add_opt buf "reason" o.reason;
      sep buf;
      add_attrs buf "attrs" o.attrs;
      sep buf;
      add_float buf "time" o.otime
  | Run_finished { time } ->
      add_str buf "e" "finish";
      sep buf;
      add_float buf "time" time
  | Wave_mark { wave; wphase; tenants; wtime } ->
      add_str buf "e" "wave";
      sep buf;
      add_int buf "wave" wave;
      sep buf;
      add_str buf "phase" wphase;
      sep buf;
      add_str buf "tenants" (String.concat " " tenants);
      sep buf;
      add_float buf "time" wtime);
  Buffer.add_char buf '}'

let entry_to_line entry =
  let buf = Buffer.create 256 in
  add_entry buf entry;
  Buffer.contents buf

(** The seed's string-building encoder, kept (like [Dag.Reference] and
    the executor's [Sched_list]) as the oracle the buffer encoder is
    asserted byte-identical against. *)
module Reference = struct
  let kv_str k v = Printf.sprintf "\"%s\":\"%s\"" k (Trace.json_escape v)
  let kv_int k v = Printf.sprintf "\"%s\":%d" k v
  let kv_float k v = Printf.sprintf "\"%s\":%s" k (Trace.float_lit v)
  let kv_bool k v = kv_int k (if v then 1 else 0)

  let kv_opt k = function
    | None -> Printf.sprintf "\"%s\":null" k
    | Some s -> kv_str k s

  let obj fields = "{" ^ String.concat "," fields ^ "}"

  let entry_to_line = function
    | Run_started { engine; changes; time } ->
        obj
          [
            kv_str "e" "start"; kv_str "engine" engine; kv_int "changes" changes;
            kv_float "time" time;
          ]
    | Intent i ->
        obj
          [
            kv_str "e" "intent";
            kv_int "op" i.op;
            kv_str "addr" (Addr.to_string i.iaddr);
            kv_str "kind" (op_kind_to_string i.kind);
            kv_str "rtype" i.rtype;
            kv_str "region" i.region;
            kv_opt "prior" i.prior_cloud_id;
            kv_int "cursor" i.log_cursor;
            kv_str "deps" (hcl_of_deps i.deps);
            kv_str "attrs" (hcl_of_map i.payload);
            kv_float "time" i.itime;
          ]
    | Outcome o ->
        obj
          [
            kv_str "e" "outcome";
            kv_int "op" o.oop;
            kv_str "addr" (Addr.to_string o.oaddr);
            kv_str "kind" (op_kind_to_string o.okind);
            kv_bool "ok" o.ok;
            kv_opt "cloud_id" o.cloud_id;
            kv_bool "retried" o.retried;
            kv_opt "reason" o.reason;
            kv_str "attrs" (hcl_of_map o.attrs);
            kv_float "time" o.otime;
          ]
    | Run_finished { time } -> obj [ kv_str "e" "finish"; kv_float "time" time ]
    | Wave_mark { wave; wphase; tenants; wtime } ->
        obj
          [
            kv_str "e" "wave";
            kv_int "wave" wave;
            kv_str "phase" wphase;
            kv_str "tenants" (String.concat " " tenants);
            kv_float "time" wtime;
          ]

  let to_string entries =
    String.concat "" (List.map (fun e -> entry_to_line e ^ "\n") entries)
end

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Trace.Parse_error ("journal: missing field " ^ k))

let str fields k =
  match field fields k with
  | Trace.Jstr s -> s
  | _ -> raise (Trace.Parse_error ("journal: field " ^ k ^ " is not a string"))

let str_opt fields k =
  match field fields k with
  | Trace.Jnull -> None
  | Trace.Jstr s -> Some s
  | _ -> raise (Trace.Parse_error ("journal: field " ^ k ^ " is not a string"))

let num fields k =
  match field fields k with
  | Trace.Jnum f -> f
  | _ -> raise (Trace.Parse_error ("journal: field " ^ k ^ " is not a number"))

let int_field fields k = int_of_float (num fields k)
let bool_field fields k = int_field fields k <> 0

let addr_field fields k =
  match Addr.of_string (str fields k) with
  | Some a -> a
  | None -> raise (Trace.Parse_error ("journal: bad address in " ^ k))

let kind_field fields k =
  match op_kind_of_string (str fields k) with
  | Some kd -> kd
  | None -> raise (Trace.Parse_error ("journal: bad op kind in " ^ k))

let entry_of_line line =
  let fields =
    match Trace.parse_json line with
    | Trace.Jobj fields -> fields
    | _ -> raise (Trace.Parse_error "journal: entry is not an object")
  in
  match str fields "e" with
  | "start" ->
      Run_started
        {
          engine = str fields "engine";
          changes = int_field fields "changes";
          time = num fields "time";
        }
  | "intent" ->
      Intent
        {
          op = int_field fields "op";
          iaddr = addr_field fields "addr";
          kind = kind_field fields "kind";
          rtype = str fields "rtype";
          region = str fields "region";
          payload = map_of_hcl (str fields "attrs");
          prior_cloud_id = str_opt fields "prior";
          deps = deps_of_hcl (str fields "deps");
          log_cursor = int_field fields "cursor";
          itime = num fields "time";
        }
  | "outcome" ->
      Outcome
        {
          oop = int_field fields "op";
          oaddr = addr_field fields "addr";
          okind = kind_field fields "kind";
          ok = bool_field fields "ok";
          cloud_id = str_opt fields "cloud_id";
          attrs = map_of_hcl (str fields "attrs");
          retried = bool_field fields "retried";
          reason = str_opt fields "reason";
          otime = num fields "time";
        }
  | "finish" -> Run_finished { time = num fields "time" }
  | "wave" ->
      Wave_mark
        {
          wave = int_field fields "wave";
          wphase = str fields "phase";
          tenants =
            (match str fields "tenants" with
            | "" -> []
            | s -> String.split_on_char ' ' s);
          wtime = num fields "time";
        }
  | e -> raise (Trace.Parse_error ("journal: unknown entry kind " ^ e))

let to_string entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      add_entry buf e;
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

(** Parse a journal, dropping a torn tail: a crash mid-append can only
    truncate the final line, so parsing stops (without error) at the
    first line that does not decode. *)
let of_string src =
  let lines = String.split_on_char '\n' src in
  let rec go acc = function
    | [] | [ "" ] -> List.rev acc
    | line :: rest -> (
        match entry_of_line line with
        | e -> go (e :: acc) rest
        | exception _ -> List.rev acc)
  in
  go [] lines

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
  of_string src

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
                      attrs = o.attrs;
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
