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

    Deletion by key is lazy: {!remove} tombstones the key in O(1) and
    {!pop}/{!peek} discard tombstoned entries on the way out, keeping
    every operation O(log n) amortized with no [decrease_key] plumbing.
    Storage is structure-of-arrays (priorities in an unboxed [float
    array]), growing by doubling with fresh slots seeded from the entry
    being pushed — no [Obj.magic] placeholder slots, and a push
    allocates nothing beyond amortized growth. *)

type order = Min_first | Max_first

type ('k, 'a) t

(** [track] (default [true]) maintains the per-key live/tombstone
    counters behind {!mem} and {!remove}.  Pass [~track:false] when
    neither is needed (the event queue): push/pop then touch no
    hashtable at all.  On an untracked queue {!mem} is always [false]
    and {!remove} raises [Invalid_argument]. *)
val create : ?initial_capacity:int -> ?track:bool -> order -> ('k, 'a) t

(** Number of live entries (pushed, not yet popped or removed). *)
val length : ('k, 'a) t -> int

val is_empty : ('k, 'a) t -> bool

(** High-water mark of {!length} over the queue's lifetime. *)
val peak_length : ('k, 'a) t -> int

(** Insert [payload] under [key] with priority [prio]. Keys need not be
    unique; they only matter to {!mem} and {!remove}. *)
val push : ('k, 'a) t -> prio:float -> key:'k -> 'a -> unit

(** Remove and return the live entry that orders first. *)
val pop : ('k, 'a) t -> (float * 'k * 'a) option

(** The entry {!pop} would return, without removing it. *)
val peek : ('k, 'a) t -> (float * 'k * 'a) option

(** Priority of the entry {!pop} would return. *)
val peek_prio : ('k, 'a) t -> float option

(** Is at least one live entry stored under this key? *)
val mem : ('k, 'a) t -> 'k -> bool

(** Lazily delete one live entry stored under [key]; returns [false]
    (and does nothing) when no live entry has the key.  The tombstone
    is resolved at pop time: the next entry under [key] to reach the
    front is the one discarded.  With unique keys (how the executor
    uses this) that is exactly the removed entry; under key reuse the
    choice is deterministic but unspecified. *)
val remove : ('k, 'a) t -> 'k -> bool
