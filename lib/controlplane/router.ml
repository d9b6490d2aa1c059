(* See router.mli.  The ring is a sorted array of (point, shard)
   vnodes; tenant lookup is an O(log vnodes) binary search for the
   first vnode clockwise of the tenant's hash.  Everything is derived
   from FNV-1a over strings — no PRNG, so assignment is a pure function
   of (tenant, shard count, vnode count) and identical on every run. *)

module Smap = Map.Make (String)

(* FNV-1a, folded into OCaml's 63-bit native int range (the offset
   basis keeps FNV's low 62 bits — the part that survives the fold).
   Good enough dispersion for placement; cheap; platform-stable. *)
let fnv1a (s : string) : int =
  let prime = 0x100000001b3 in
  let h = ref 0x0bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * prime)
    s;
  !h land max_int

type t = {
  shards : int;
  ring : (int * int) array;  (** (point, shard), sorted by point *)
  mutable pins : int Smap.t;  (** tenant -> shard overrides *)
  mutable moves : int;  (** pins installed over the lifetime *)
}

let build_ring ~shards ~vnodes_per_shard =
  let points =
    Array.init (shards * vnodes_per_shard) (fun i ->
        let shard = i / vnodes_per_shard and v = i mod vnodes_per_shard in
        (fnv1a (Printf.sprintf "shard-%d#%d" shard v), shard))
  in
  (* ties broken by shard index so the ring is a total order *)
  Array.sort compare points;
  points

let create ?(vnodes_per_shard = 64) ~shards () =
  if shards < 1 then invalid_arg "Router.create: shards must be >= 1";
  {
    shards;
    ring = build_ring ~shards ~vnodes_per_shard;
    pins = Smap.empty;
    moves = 0;
  }

let shards t = t.shards

(* First vnode with point >= h, wrapping to ring.(0) past the end. *)
let ring_assign t tenant =
  if t.shards = 1 then 0
  else begin
    let h = fnv1a tenant in
    let n = Array.length t.ring in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd t.ring.(if !lo = n then 0 else !lo)
  end

let assign t tenant =
  match Smap.find_opt tenant t.pins with
  | Some s -> s
  | None -> ring_assign t tenant

let pin t tenant shard =
  if shard < 0 || shard >= t.shards then
    invalid_arg "Router.pin: shard out of range";
  if assign t tenant <> shard then begin
    t.moves <- t.moves + 1;
    t.pins <- Smap.add tenant shard t.pins
  end

let pinned t = Smap.bindings t.pins
let moves t = t.moves

(* Detection partitioning: which shard's subscription classifies an
   activity-log entry.  Deliberately a *different* hash domain than
   tenant ownership (cloud ids, not tenant names), so the detecting
   shard and the owning shard routinely differ and cross-shard drift
   routing is exercised on every run, not just after rebalances. *)
let partition t cloud_id = fnv1a cloud_id mod t.shards
