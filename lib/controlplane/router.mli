(** Tenant-to-shard routing for the control-plane fleet (E15).

    Ownership placement is a consistent-hash ring: each shard
    contributes [vnodes_per_shard] virtual nodes at FNV-1a-derived
    points, and a tenant lands on the first vnode clockwise of its own
    hash.  Growing the fleet from [n] to [n+1] shards therefore remaps
    only ~1/(n+1) of tenants — the property the QCheck stability test
    pins down.  Rebalancing overlays explicit {!pin} overrides on top
    of the ring; the ring itself never changes for a given shard
    count, so assignment stays a pure function of the inputs.

    Deliberately no PRNG and no wall clock anywhere: routing decisions
    must be byte-reproducible across runs and identical on every
    resume. *)

type t

(** [create ~shards ()] builds the ring.  [vnodes_per_shard] (default
    64) trades balance quality against ring size.
    @raise Invalid_argument when [shards < 1]. *)
val create : ?vnodes_per_shard:int -> shards:int -> unit -> t

val shards : t -> int

(** Owning shard for [tenant]: the {!pin} override when present,
    otherwise the ring position. *)
val assign : t -> string -> int

(** Ring position alone, ignoring pins — what [tenant] would map to on
    a fresh fleet of this size. *)
val ring_assign : t -> string -> int

(** Override [tenant]'s placement (a rebalance move).  No-op when the
    tenant already resolves there.
    @raise Invalid_argument when [shard] is out of range. *)
val pin : t -> string -> int -> unit

(** Current overrides, sorted by tenant. *)
val pinned : t -> (string * int) list

(** Rebalance moves installed over the router's lifetime. *)
val moves : t -> int

(** Detection partition for an activity-log entry: which shard's
    subscription classifies events about [cloud_id].  Hashes cloud ids
    rather than tenants, so the detecting shard and the owning shard
    routinely differ — cross-shard drift routing is the common case,
    not the exception. *)
val partition : t -> string -> int

(**/**)

(** Exposed for tests: the stable string hash behind the ring. *)
val fnv1a : string -> int
