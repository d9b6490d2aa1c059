(** Granular locking for concurrent infrastructure updates (§3.4).

    Lock sets are granted atomically (all-or-nothing); waiters queue
    FIFO among conflicting requests, but a queued request never blocks
    a later non-conflicting one (no head-of-line blocking across
    disjoint key sets).  Keys are taken in sorted order internally, so
    the discipline is deadlock-free.

    Whenever keys are freed, the earliest queued request whose keys are
    all available is granted, then the next, until none is.  Each key
    keeps its own FIFO wait list and the manager an owner -> keys
    index, so a release costs the wait lists of the keys it frees,
    never a scan of the whole queue, and an acquire on free keys costs
    its keys' lookups. *)

module Addr := Cloudless_hcl.Addr

(** [Global] models today's whole-infrastructure lock; [Per_resource]
    is the cloudless proposal. *)
type granularity = Global | Per_resource

type t

val create : granularity -> t

(** Request the locks for [keys] on behalf of [owner]; the callback
    fires (possibly immediately, possibly later) once all keys are
    held.  Re-entrant per owner.  A request whose keys are available
    is granted before [acquire] returns, after any earlier queued
    request that a release made grantable; one still queued when
    [acquire] returns counts as a wait. *)
val acquire : t -> owner:string -> keys:Addr.t list -> (unit -> unit) -> unit

(** Release every key held by [owner] and wake eligible waiters, in
    arrival order. *)
val release : t -> owner:string -> unit

(** Non-queueing variant; [false] = would block. *)
val try_acquire : t -> owner:string -> keys:Addr.t list -> bool

(** Currently held keys with their owners, sorted. *)
val holders : t -> (Addr.t * string) list

(** Requests queued and not yet granted. *)
val queue_length : t -> int

(** (grants, waits): every grant, [try_acquire]'s included, and the
    requests that were still queued when their [acquire] returned. *)
val stats : t -> int * int
