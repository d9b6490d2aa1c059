(** Generic keyed priority queue (binary heap).

    Shared by the simulator's {!Event_queue} (min-heap on time), the
    plan walker's ready set (max-heap on critical-path priority) and
    the control-plane shard's work queue (min-heap on work class).

    Entries carry a float priority and a monotonically increasing
    insertion sequence number; the {!order} chosen at creation fixes
    both the priority sense and the tie-break, so every pop sequence is
    a total, deterministic order:

    - {!Min_first}: smallest priority first; ties pop in insertion
      order (FIFO) — what an event queue keyed by time wants.
    - {!Max_first}: largest priority first; ties pop most-recent-first
      (LIFO) — the order the executor's historical list scan produced
      for critical-path scheduling.

    Push and pop are O(log n) amortized.  The heap itself is three
    arrays of unboxed priorities, insertion numbers and slots; keys and
    payloads sit in a slab at their slot from push to pop, so a sift
    moves a hole through the heap arrays and never the entries.  The
    arrays grow by doubling with fresh slab cells seeded from the entry
    being pushed, so no placeholder value is ever stored.
    {!top_key} and {!take} read and remove the first entry without
    allocating, and a push allocates only when the arrays grow; the
    float {!top_prio} returns is boxed unless the call is inlined. *)

type order = Min_first | Max_first

type ('k, 'a) t

val create : order -> ('k, 'a) t

(** Number of entries pushed and not yet popped. *)
val length : ('k, 'a) t -> int

val is_empty : ('k, 'a) t -> bool

(** High-water mark of {!length} over the queue's lifetime. *)
val peak_length : ('k, 'a) t -> int

(** Insert [payload] under [key] with priority [prio].  Keys need not
    be unique; {!top_key} hands each entry's key back. *)
val push : ('k, 'a) t -> prio:float -> key:'k -> 'a -> unit

(** Priority of the entry that orders first.  Raises
    [Invalid_argument] on an empty queue. *)
val top_prio : ('k, 'a) t -> float

(** Key of the entry that orders first.  Raises [Invalid_argument] on
    an empty queue. *)
val top_key : ('k, 'a) t -> 'k

(** Remove the entry that orders first and return its payload.  Raises
    [Invalid_argument] on an empty queue. *)
val take : ('k, 'a) t -> 'a
