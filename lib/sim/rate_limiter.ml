(** Token-bucket API rate limiter.

    Public clouds throttle management-plane calls (e.g. Azure Resource
    Manager allows ~12000 reads and ~1200 writes per hour per
    subscription and answers excess calls with 429 + Retry-After).
    §3.3 and §3.5 both hinge on this behaviour: deployment scheduling
    must respect it, and scan-based drift detection is expensive
    because of it. *)

(* The two hot cells live in a float array, not mutable float fields:
   the record also carries int counters, so it is not a flat float
   record and every [t.tokens <- ...] would box a fresh float.  Stores
   into a [float array] stay unboxed — the pacer runs per admitted
   change and showed up in apply-leg allocation profiles. *)
type t = {
  capacity : float;  (** bucket size (burst) *)
  refill_rate : float;  (** tokens per second *)
  cells : float array;  (** [|tokens; last_refill (sim time)|] *)
  mutable total_admitted : int;
  mutable total_throttled : int;
}

let create ~capacity ~refill_rate =
  {
    capacity;
    refill_rate;
    cells = [| capacity; 0. |];
    total_admitted = 0;
    total_throttled = 0;
  }

(* AWS-ish default write budget: token bucket with a ~2/s sustained
   rate (EC2-style request-rate limiting). *)
let default_write () = create ~capacity:50. ~refill_rate:2.

(* AWS-ish read budget. *)
let default_read () = create ~capacity:100. ~refill_rate:10.

(* Azure Resource Manager-style budgets: 1200 writes and 12000 reads
   per hour per subscription — the tight regime of §3.3/§3.5. *)
let azure_write () = create ~capacity:40. ~refill_rate:(1200. /. 3600.)
let azure_read () = create ~capacity:100. ~refill_rate:(12000. /. 3600.)

let refill t ~now =
  if now > t.cells.(1) then begin
    t.cells.(0) <-
      Float.min t.capacity
        (t.cells.(0) +. ((now -. t.cells.(1)) *. t.refill_rate));
    t.cells.(1) <- now
  end

(** Try to admit one call at simulation time [now].  On throttle,
    returns the Retry-After delay (seconds until a token will be
    available). *)
let try_acquire t ~now =
  refill t ~now;
  if t.cells.(0) >= 1. then begin
    t.cells.(0) <- t.cells.(0) -. 1.;
    t.total_admitted <- t.total_admitted + 1;
    Ok ()
  end
  else begin
    t.total_throttled <- t.total_throttled + 1;
    let deficit = 1. -. t.cells.(0) in
    Error (deficit /. t.refill_rate)
  end

(** Reserve one token, allowing the balance to go negative: returns the
    delay after which the reservation is covered by refill.  This is
    the client-side pacing primitive — K reservations beyond the burst
    capacity space themselves K/rate apart instead of colliding. *)
let reserve t ~now =
  refill t ~now;
  t.cells.(0) <- t.cells.(0) -. 1.;
  t.total_admitted <- t.total_admitted + 1;
  if t.cells.(0) >= 0. then 0. else -.t.cells.(0) /. t.refill_rate

(** Tokens currently available (after refill at [now]). *)
let available t ~now =
  refill t ~now;
  t.cells.(0)

(** Seconds until [n] tokens would be available. *)
let time_until t ~now n =
  refill t ~now;
  if t.cells.(0) >= n then 0. else (n -. t.cells.(0)) /. t.refill_rate

let stats t = (t.total_admitted, t.total_throttled)
let fresh t = create ~capacity:t.capacity ~refill_rate:t.refill_rate
