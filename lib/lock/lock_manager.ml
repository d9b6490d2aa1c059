(** Granular locking for concurrent infrastructure updates (§3.4).

    Stock IaC "simply lock[s] the entire cloud infrastructure for
    modifications at any scale"; cloudless computing proposes
    per-resource locks so mutual exclusion arises only when two teams
    touch the same resource.

    The manager hands out *lock sets* atomically: an owner requests all
    the keys its transaction needs; the grant is all-or-nothing, keys
    are acquired in sorted order internally, and waiters queue FIFO —
    together this rules out deadlock and starvation. *)

module Addr = Cloudless_hcl.Addr

type granularity = Global | Per_resource

(* The single key used in Global mode. *)
let global_key = Addr.make ~rtype:"__infrastructure__" ~rname:"all" ()

type request = {
  owner : string;
  keys : Addr.t list;  (** sorted, deduplicated *)
  grant : unit -> unit;  (** called when all keys are held *)
}

type t = {
  granularity : granularity;
  held : (Addr.t, string) Hashtbl.t;  (** key -> owner *)
  mutable queue : request list;  (** FIFO waiters *)
  mutable waiting : int;  (** length of [queue] *)
  mutable grants : int;
  mutable waits : int;  (** requests that had to queue *)
}

let create granularity =
  {
    granularity;
    held = Hashtbl.create 32;
    queue = [];
    waiting = 0;
    grants = 0;
    waits = 0;
  }

let effective_keys t keys =
  match t.granularity with
  | Global -> [ global_key ]
  | Per_resource -> List.sort_uniq Addr.compare keys

let available t keys owner =
  List.for_all
    (fun k ->
      match Hashtbl.find_opt t.held k with
      | None -> true
      | Some o -> o = owner)
    keys

let take t keys owner = List.iter (fun k -> Hashtbl.replace t.held k owner) keys

(* Serve queued requests in order; a blocked head does not block
   non-conflicting requests behind it (no head-of-line blocking across
   disjoint key sets), but grants remain FIFO among conflicting ones. *)
let rec serve t =
  let rec scan acc = function
    | [] -> None
    | r :: rest ->
        if available t r.keys r.owner then Some (r, List.rev_append acc rest)
        else scan (r :: acc) rest
  in
  match scan [] t.queue with
  | None -> ()
  | Some (r, rest) ->
      t.queue <- rest;
      t.waiting <- t.waiting - 1;
      take t r.keys r.owner;
      t.grants <- t.grants + 1;
      r.grant ();
      serve t

(** Request the locks for [keys] on behalf of [owner]; [grant] fires
    (possibly immediately) once all are held. *)
let acquire t ~owner ~keys grant =
  let keys = effective_keys t keys in
  if t.queue = [] && available t keys owner then begin
    take t keys owner;
    t.grants <- t.grants + 1;
    grant ()
  end
  else begin
    t.waits <- t.waits + 1;
    t.queue <- t.queue @ [ { owner; keys; grant } ];
    t.waiting <- t.waiting + 1;
    (* a request conflicting with the queue head may still be blocked,
       but this request itself may be grantable right now *)
    serve t
  end

(** Release every key held by [owner] and wake eligible waiters. *)
let release t ~owner =
  let owned =
    Hashtbl.fold
      (fun k o acc -> if o = owner then k :: acc else acc)
      t.held []
  in
  List.iter (Hashtbl.remove t.held) owned;
  serve t

(** Try to acquire without queueing. *)
let try_acquire t ~owner ~keys =
  let keys = effective_keys t keys in
  if available t keys owner then begin
    take t keys owner;
    t.grants <- t.grants + 1;
    true
  end
  else false

let holders t =
  Hashtbl.fold (fun k o acc -> (k, o) :: acc) t.held []
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let queue_length t = t.waiting
let stats t = (t.grants, t.waits)
