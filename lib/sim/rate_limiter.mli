(** Token-bucket API rate limiter.

    Models management-plane throttling: a bucket of [capacity] tokens
    refilling at [refill_rate] per second; an empty bucket answers with
    a 429-style rejection carrying a Retry-After delay. *)

type t

val create : capacity:float -> refill_rate:float -> t

(** AWS-style default write budget (burst 50, ~2/s sustained). *)
val default_write : unit -> t

(** AWS-style default read budget. *)
val default_read : unit -> t

(** Azure Resource Manager-style budget: 1200 writes/hour. *)
val azure_write : unit -> t

(** Azure Resource Manager-style budget: 12000 reads/hour. *)
val azure_read : unit -> t

(** Try to admit one call at simulation time [now]; [Error delay]
    means throttled, retry after [delay] seconds. *)
val try_acquire : t -> now:float -> (unit, float) result

(** Reserve one token allowing a negative balance; returns the delay
    until the reservation is covered by refill.  The client-side pacing
    primitive: reservations beyond the burst capacity space themselves
    at the refill rate. *)
val reserve : t -> now:float -> float

(** Tokens currently available. *)
val available : t -> now:float -> float

(** Seconds until [n] tokens would be available. *)
val time_until : t -> now:float -> float -> float

(** (admitted, throttled) counters. *)
val stats : t -> int * int

(** A new, full bucket with [t]'s capacity and refill rate. *)
val fresh : t -> t
