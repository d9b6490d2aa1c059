(** Granular locking for concurrent infrastructure updates (§3.4).

    Stock IaC "simply lock[s] the entire cloud infrastructure for
    modifications at any scale"; cloudless computing proposes
    per-resource locks so mutual exclusion arises only when two teams
    touch the same resource.

    The manager hands out *lock sets* atomically: an owner requests all
    the keys its transaction needs; the grant is all-or-nothing, keys
    are acquired in sorted order internally, and waiters queue FIFO —
    together this rules out deadlock and starvation.

    Grants follow one rule: whenever a key is freed, the earliest
    queued request whose keys are all free (or its owner's) is granted,
    and then the next, until none is.  A request can only become
    grantable when a key it waits on is released, so the manager keeps
    a FIFO wait list per key and, between a release and the end of the
    grants it causes, the released keys whose waiters are not yet
    settled.  The earliest grantable waiter over those keys is the
    earliest grantable request of the whole queue.  A release therefore
    costs its keys' wait lists, never the queue, and an owner -> keys
    index finds what the owner holds. *)

module Addr = Cloudless_hcl.Addr

type granularity = Global | Per_resource

(* The single key used in Global mode. *)
let global_key = Addr.make ~rtype:"__infrastructure__" ~rname:"all" ()

(* One key's lock and wait list.  [waiters.(head .. tail-1)] holds the
   requests that queued on the key, in arrival order; one granted
   through another of its keys stays until the scan or a compaction
   drops it.  [live] counts the still-queued ones. *)
type slot = {
  mutable held : bool;
  mutable holder : string;  (** the owner, while [held] *)
  mutable waiters : request array;
  mutable head : int;
  mutable tail : int;
  mutable live : int;
  mutable settling : bool;  (** in [t.unsettled] *)
}

and request = {
  seq : int;  (** arrival order *)
  owner : string;
  slots : slot list;  (** sorted by key, deduplicated *)
  grant : unit -> unit;  (** called when all keys are held *)
  mutable queued : bool;
}

type t = {
  granularity : granularity;
  table : (Addr.t, slot) Hashtbl.t;
  global : slot list;  (** [Global] mode's one key *)
  no_key : slot list;
      (** the wait list of requests for no key: in no request's
          [slots], so never held *)
  owned : (string, slot list) Hashtbl.t;  (** owner -> keys it holds *)
  queued_by : (string, int) Hashtbl.t;  (** owner -> its queued requests *)
  mutable unsettled : slot list;
      (** released keys whose waiters may hold the next grant *)
  mutable next_seq : int;
  mutable waiting : int;  (** queued requests *)
  mutable grants : int;
  mutable waits : int;  (** requests still queued when [acquire] returned *)
}

(* Fills vacated wait-list cells, so a granted request is not kept
   alive by the array. *)
let vacant = { seq = -1; owner = ""; slots = []; grant = ignore; queued = false }

let new_slot () =
  {
    held = false;
    holder = "";
    waiters = [||];
    head = 0;
    tail = 0;
    live = 0;
    settling = false;
  }

let create granularity =
  let table = Hashtbl.create 32 in
  let global = new_slot () in
  Hashtbl.replace table global_key global;
  {
    granularity;
    table;
    global = [ global ];
    no_key = [ new_slot () ];
    owned = Hashtbl.create 32;
    queued_by = Hashtbl.create 8;
    unsettled = [];
    next_seq = 0;
    waiting = 0;
    grants = 0;
    waits = 0;
  }

let slot t key =
  match Hashtbl.find t.table key with
  | s -> s
  | exception Not_found ->
      let s = new_slot () in
      Hashtbl.add t.table key s;
      s

let rec slots_of t = function [] -> [] | k :: ks -> slot t k :: slots_of t ks

let effective_slots t keys =
  match t.granularity with
  | Global -> t.global
  | Per_resource -> slots_of t (List.sort_uniq Addr.compare keys)

let rec available owner = function
  | [] -> true
  | s :: rest ->
      ((not s.held) || String.equal s.holder owner) && available owner rest

let take t owner slots =
  let rec mark fresh = function
    | [] -> fresh
    | s :: rest ->
        if s.held then mark fresh rest
        else begin
          s.held <- true;
          s.holder <- owner;
          mark (s :: fresh) rest
        end
  in
  match mark [] slots with
  | [] -> ()
  | fresh ->
      let prior = try Hashtbl.find t.owned owner with Not_found -> [] in
      Hashtbl.replace t.owned owner (List.rev_append fresh prior)

let queued_count t owner = try Hashtbl.find t.queued_by owner with Not_found -> 0

(* Append [r] to [s]'s wait list.  A full array is compacted to its
   queued entries and sized to twice their number, so appends cost
   O(1) amortized. *)
let append s r =
  if s.tail = Array.length s.waiters then begin
    let fresh = Array.make (max 4 (2 * (s.live + 1))) vacant in
    let n = ref 0 in
    for i = s.head to s.tail - 1 do
      let w = s.waiters.(i) in
      if w.queued then begin
        fresh.(!n) <- w;
        incr n
      end
    done;
    s.waiters <- fresh;
    s.head <- 0;
    s.tail <- !n
  end;
  s.waiters.(s.tail) <- r;
  s.tail <- s.tail + 1;
  s.live <- s.live + 1

let enqueue t owner slots grant =
  let r = { seq = t.next_seq; owner; slots; grant; queued = true } in
  t.next_seq <- t.next_seq + 1;
  (match slots with
  | [] -> List.iter (fun s -> append s r) t.no_key
  | _ -> List.iter (fun s -> append s r) slots);
  t.waiting <- t.waiting + 1;
  Hashtbl.replace t.queued_by owner (queued_count t owner + 1);
  r

(* [r] is granted: it leaves every wait list it is on. *)
let dequeue t r =
  r.queued <- false;
  let leave s =
    s.live <- s.live - 1;
    if s.live = 0 then begin
      Array.fill s.waiters s.head (s.tail - s.head) vacant;
      s.head <- 0;
      s.tail <- 0
    end
  in
  (match r.slots with [] -> List.iter leave t.no_key | _ -> List.iter leave r.slots);
  t.waiting <- t.waiting - 1;
  match queued_count t r.owner with
  | 1 -> Hashtbl.remove t.queued_by r.owner
  | n -> Hashtbl.replace t.queued_by r.owner (n - 1)

let unsettle t s =
  if not s.settling then begin
    s.settling <- true;
    t.unsettled <- s :: t.unsettled
  end

(* The earliest queued request on [s] whose keys are all available, or
   [vacant].  Only the holder's own requests can pass a held key, so a
   held key whose holder has none queued has no grantable waiter. *)
let first_grantable t s =
  while s.head < s.tail && not s.waiters.(s.head).queued do
    s.waiters.(s.head) <- vacant;
    s.head <- s.head + 1
  done;
  if s.live = 0 || (s.held && queued_count t s.holder = 0) then vacant
  else begin
    let found = ref vacant and i = ref s.head in
    while !found == vacant && !i < s.tail do
      let r = s.waiters.(!i) in
      if r.queued && available r.owner r.slots then found := r;
      incr i
    done;
    !found
  end

(* Grant the earliest grantable request over the unsettled keys, then
   repeat.  A key with no grantable waiter is settled: only a release
   of one of its waiters' keys can change that, and the release
   unsettles that key.  A grant callback may acquire or release; the
   loop reads the unsettled keys afresh after it. *)
let rec serve t =
  if t.unsettled <> [] then begin
    let best = ref vacant in
    t.unsettled <-
      List.filter
        (fun s ->
          let r = first_grantable t s in
          if r == vacant then begin
            s.settling <- false;
            false
          end
          else begin
            if !best == vacant || r.seq < !best.seq then best := r;
            true
          end)
        t.unsettled;
    let r = !best in
    if r != vacant then begin
      dequeue t r;
      take t r.owner r.slots;
      t.grants <- t.grants + 1;
      r.grant ();
      serve t
    end
  end

(** Request the locks for [keys] on behalf of [owner]; [grant] fires
    (possibly immediately) once all are held.  The request is granted
    at once when its keys are available and no released key still has
    a waiter to settle; otherwise it queues, and it counts as a wait
    when it is still queued as [acquire] returns. *)
let acquire t ~owner ~keys grant =
  let slots = effective_slots t keys in
  let free = available owner slots in
  if free && (t.unsettled = [] || t.waiting = 0) then begin
    take t owner slots;
    t.grants <- t.grants + 1;
    grant ()
  end
  else begin
    let r = enqueue t owner slots grant in
    (* a grantable request goes after the earlier grantable waiters *)
    (if free then
       match slots with s :: _ -> unsettle t s | [] -> List.iter (unsettle t) t.no_key);
    serve t;
    if r.queued then t.waits <- t.waits + 1
  end

(** Release every key held by [owner] and wake eligible waiters. *)
let release t ~owner =
  (match Hashtbl.find t.owned owner with
  | slots ->
      Hashtbl.remove t.owned owner;
      List.iter
        (fun s ->
          s.held <- false;
          s.holder <- "";
          if s.live > 0 then unsettle t s)
        slots
  | exception Not_found -> ());
  serve t

(** Try to acquire without queueing. *)
let try_acquire t ~owner ~keys =
  let slots = effective_slots t keys in
  if available owner slots then begin
    take t owner slots;
    t.grants <- t.grants + 1;
    true
  end
  else false

let holders t =
  Hashtbl.fold (fun k s acc -> if s.held then (k, s.holder) :: acc else acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let queue_length t = t.waiting
let stats t = (t.grants, t.waits)
