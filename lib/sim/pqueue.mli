(** Generic keyed priority queue (binary heap).

    Shared by the simulator's {!Event_queue} (min-heap on time) and the
    plan walker's ready set (max-heap on critical-path priority).

    Entries carry a float priority and a monotonically increasing
    insertion sequence number; the {!order} chosen at creation fixes
    both the priority sense and the tie-break, so every pop sequence is
    a total, deterministic order:

    - {!Min_first}: smallest priority first; ties pop in insertion
      order (FIFO) — what an event queue keyed by time wants.
    - {!Max_first}: largest priority first; ties pop most-recent-first
      (LIFO) — the order the executor's historical list scan produced
      for critical-path scheduling.

    Push and pop are O(log n) amortized.  Storage is
    structure-of-arrays (priorities in an unboxed [float array]),
    growing by doubling with fresh slots seeded from the entry being
    pushed — no [Obj.magic] placeholder slots, and a push allocates
    nothing beyond amortized growth. *)

type order = Min_first | Max_first

type ('k, 'a) t

val create : order -> ('k, 'a) t

(** Number of entries pushed and not yet popped. *)
val length : ('k, 'a) t -> int

val is_empty : ('k, 'a) t -> bool

(** High-water mark of {!length} over the queue's lifetime. *)
val peak_length : ('k, 'a) t -> int

(** Insert [payload] under [key] with priority [prio].  Keys need not
    be unique; {!pop} hands each entry's key back with it. *)
val push : ('k, 'a) t -> prio:float -> key:'k -> 'a -> unit

(** Remove and return the entry that orders first. *)
val pop : ('k, 'a) t -> (float * 'k * 'a) option
