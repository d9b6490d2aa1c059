(** A small metrics registry for long-running services.

    The control plane records its operational signals here — work-queue
    depth, lock waits, per-tenant API calls, request latency — as three
    metric kinds keyed by name:

    - {b counters} ({!inc}): monotone event counts,
    - {b gauges} ({!set}): last-written value plus the high-water mark,
    - {b histograms} ({!observe}): raw sample sets with nearest-rank
      percentiles computed at read time.

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

(** Number of samples recorded into the histogram. *)
val histogram_count : t -> string -> int

(** All metric names, sorted. *)
val names : t -> string list

(** A labeled recording handle.  Writing through a scope built with
    [scoped t (Some "shard0")] records each signal twice: under the
    bare name (the fleet-wide series) and under ["name.shard0"] (the
    per-shard breakdown).  An unlabeled scope ([scoped t None])
    records the bare name only. *)
type scope

val scoped : t -> string option -> scope
val scope_inc : scope -> ?by:int -> string -> unit
val scope_set : scope -> string -> float -> unit
val scope_observe : scope -> string -> float -> unit

(** The registry behind the scope. *)
val scope_metrics : scope -> t

(** The scope's label, if any. *)
val scope_label : scope -> string option

(** The canonical snapshot: one JSON object, names sorted, counters as
    [{type,count}], gauges as [{type,last,max}], histograms as
    [{type,count,sum,min,max,p50,p90,p99}]. *)
val to_json : t -> string

val write_json : t -> path:string -> unit
