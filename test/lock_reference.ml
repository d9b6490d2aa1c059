(* The lock manager before per-key wait lists, kept as the tests'
   oracle for grant order: one FIFO queue of waiters, rescanned from
   its head after every grant, release and queued acquire.  A wait
   counts a request still queued when its [acquire] returns, as
   [Lock_manager] counts it. *)

module Addr = Cloudless_hcl.Addr
module Lock_manager = Cloudless_lock.Lock_manager

type granularity = Lock_manager.granularity = Global | Per_resource

let global_key = Addr.make ~rtype:"__infrastructure__" ~rname:"all" ()

type request = { owner : string; keys : Addr.t list; grant : unit -> unit }

type t = {
  granularity : granularity;
  held : (Addr.t, string) Hashtbl.t;
  mutable queue : request list;
  mutable waiting : int;
  mutable grants : int;
  mutable waits : int;
}

let create granularity =
  { granularity; held = Hashtbl.create 32; queue = []; waiting = 0; grants = 0; waits = 0 }

let effective_keys t keys =
  match t.granularity with
  | Global -> [ global_key ]
  | Per_resource -> List.sort_uniq Addr.compare keys

let available t keys owner =
  List.for_all
    (fun k -> match Hashtbl.find_opt t.held k with None -> true | Some o -> o = owner)
    keys

let take t keys owner = List.iter (fun k -> Hashtbl.replace t.held k owner) keys

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

let acquire t ~owner ~keys grant =
  let keys = effective_keys t keys in
  if t.queue = [] && available t keys owner then begin
    take t keys owner;
    t.grants <- t.grants + 1;
    grant ()
  end
  else begin
    let r = { owner; keys; grant } in
    t.queue <- t.queue @ [ r ];
    t.waiting <- t.waiting + 1;
    serve t;
    if List.memq r t.queue then t.waits <- t.waits + 1
  end

let release t ~owner =
  let owned = Hashtbl.fold (fun k o acc -> if o = owner then k :: acc else acc) t.held [] in
  List.iter (Hashtbl.remove t.held) owned;
  serve t

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
