(** Binary-heap event queue for the discrete-event simulator.

    Events are ordered by (time, insertion sequence): ties fire in
    insertion order, keeping runs deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

(** Schedule a payload at an absolute time. *)
val push : 'a t -> time:float -> 'a -> unit

(** Time of the earliest event.  Raises [Invalid_argument] when the
    queue is empty. *)
val next_time : 'a t -> float

(** Remove the earliest event and return its payload, allocating
    nothing.  Raises [Invalid_argument] when the queue is empty. *)
val take : 'a t -> 'a
