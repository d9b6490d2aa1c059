(** Event queue for the discrete-event simulator: a thin veneer over
    the shared {!Pqueue} heap.

    Events are ordered by (time, sequence number): [Pqueue.Min_first]
    ties break in insertion order, which keeps runs deterministic. *)

type 'a t = (unit, 'a) Pqueue.t

let create () = Pqueue.create Pqueue.Min_first

let is_empty = Pqueue.is_empty
let length = Pqueue.length

(** Schedule [payload] at absolute [time]. *)
let push t ~time payload = Pqueue.push t ~prio:time ~key:() payload

(** Time of the earliest event; the queue must not be empty. *)
let next_time = Pqueue.top_prio

(** Remove the earliest event and return its payload. *)
let take = Pqueue.take
