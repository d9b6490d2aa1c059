(** A small metrics registry for long-running services.

    The control plane records its operational signals here — work-queue
    depth, lock waits, per-tenant API calls, request latency — as three
    metric kinds keyed by name:

    - {b counters} ({!inc}): monotone event counts,
    - {b gauges} ({!set}): last-written value plus the high-water mark,
    - {b histograms} ({!observe}): raw sample sets with nearest-rank
      percentiles computed at read time.

    A writer on a hot path names each metric once, as a {!handle}, and
    writes through it without building or hashing the name again.

    Metrics are created on first touch; touching a name with the wrong
    kind raises [Invalid_argument] (a programming error, not an
    operational condition).  Per-tenant/per-deployment breakdowns are
    encoded in the name (["api_calls.tenant3"]) — the registry itself
    is label-free.

    Snapshots ({!to_json}) are canonical: names sorted, floats
    rendered with the exact-round-trip literal ({!Trace.float_lit}).
    Feed only simulated-time-derived values and two identical runs
    produce byte-identical snapshots — the E14 benchmark asserts
    exactly that. *)

type t

val create : unit -> t

(** Bump counter [name] by [by] (default 1). *)
val inc : t -> ?by:int -> string -> unit

(** Set gauge [name], tracking the maximum ever set. *)
val set : t -> string -> float -> unit

(** Record one sample into histogram [name]. *)
val observe : t -> string -> float -> unit

(** Current counter value (0 when never bumped). *)
val counter : t -> string -> int

(** Last value set on the gauge, if any. *)
val gauge : t -> string -> float option

(** Nearest-rank percentile [p] (in 0..100) of the recorded samples;
    [None] when no sample was observed. *)
val percentile : t -> string -> float -> float option

(** All metric names, sorted. *)
val names : t -> string list

(** A label for handles.  A write through a {!scope_handle} of a scope
    built with [scoped t (Some "shard0")] records the signal twice:
    under the bare name (the fleet-wide series) and under
    ["name.shard0"] (the per-shard breakdown).  An unlabeled scope
    ([scoped t None]) records the bare name only. *)
type scope

val scoped : t -> string option -> scope

(** The registry behind the scope. *)
val scope_metrics : scope -> t

(** A metric named once, for a writer on a hot path.  The first write
    through a handle finds its metric in the registry, or creates it
    just as the by-name write would; later writes go straight to that
    metric, with no name built and no lookup.  So a handle made and
    never written adds nothing to a snapshot, and a metric reads the
    same whichever way it was written.  Writing a handle with the
    wrong kind raises [Invalid_argument], as a by-name write does. *)
type handle

(** The handle of metric [name] in the registry, or with [label] of
    ["name.<label>"] (a per-tenant series such as
    ["api_calls.tenant3"]). *)
val handle : t -> ?label:string -> string -> handle

(** The handle of [name] through a scope: a write records under the
    bare name and, for a labelled scope, under ["name.<label>"]. *)
val scope_handle : scope -> string -> handle

module Handle : sig
  (** {!inc} through a handle. *)
  val inc : handle -> int -> unit

  (** {!set} through a handle. *)
  val set : handle -> float -> unit

  (** {!observe} through a handle. *)
  val observe : handle -> float -> unit
end

(** The canonical snapshot: one JSON object, names sorted, counters as
    [{type,count}], gauges as [{type,last,max}], histograms as
    [{type,count,sum,min,max,p50,p90,p99}]. *)
val to_json : t -> string

val write_json : t -> path:string -> unit
