(** Stage tracing for the engine run-context.

    A {!t} is a lightweight tracer every lifecycle layer shares.  Each
    stage runs inside a {b span} ({!with_span}) carrying the stage
    name, nesting depth, simulated-clock and wall-clock start/end,
    named integer counters, and free-form metadata.  Spans are
    delivered to a pluggable {!sink} when they end (children before
    parents; begin order is recoverable from [seq]).  Three sinks
    ship: {!null} (disabled, zero allocation on the hot path),
    {!memory_sink} (tests, benchmarks) and the JSONL renderer
    ({!write_jsonl} / {!read_jsonl}, the CLI's [--trace] output). *)

type span = {
  name : string;
  seq : int;  (** begin order, 0-based, unique per tracer *)
  depth : int;  (** nesting depth at begin (0 = top-level verb) *)
  sim_start : float;
  mutable sim_end : float;
  wall_start : float;
  mutable wall_end : float;
  counters : (string, int) Hashtbl.t;
  mutable meta : (string * string) list;
}

type sink = span -> unit

(** A tracer.  Abstract: mutate it only through {!set_sim_clock},
    {!with_span}, {!emit_span}, {!count} and {!meta}. *)
type t

(** The no-op tracer: spans are not recorded, counters vanish. *)
val null : t

val enabled : t -> bool

(** [create ~sim_clock sink] makes a live tracer.  [sim_clock] should
    read the simulated cloud's clock (default: constant 0, for flows
    with no simulator); [wall_clock] defaults to
    [Unix.gettimeofday]. *)
val create :
  ?sim_clock:(unit -> float) -> ?wall_clock:(unit -> float) -> sink -> t

(** Point the tracer at a live simulated clock.  The cloud is usually
    created after the tracer, so [Cloud.set_trace] calls this to make
    subsequent spans carry discrete-event timestamps. *)
val set_sim_clock : t -> (unit -> float) -> unit

(** A sink that accumulates spans in memory; the second component
    returns them in emission order (end order). *)
val memory_sink : unit -> sink * (unit -> span list)

(** Bump counter [key] by [n] on the innermost active span.  No-op when
    tracing is disabled or no span is open — layers call this
    unconditionally. *)
val count : t -> string -> int -> unit

(** Annotate the innermost active span. *)
val meta : t -> string -> string -> unit

(** Run [f] inside a span named [name].  The span is emitted to the
    sink when [f] returns {i or raises} — a failing stage still leaves
    its timing and counters in the trace. *)
val with_span : t -> ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Emit a span for {e asynchronous} work that began at simulated time
    [sim_start] and is finishing now.  {!with_span} models a call
    stack, which event-loop work (many interleaved units of work in
    flight at once) cannot use; the control plane records each
    completed unit of work through this instead.  Emitted at depth 0;
    both wall times read the wall clock at emission. *)
val emit_span :
  t ->
  ?meta:(string * string) list ->
  ?counters:(string * int) list ->
  sim_start:float ->
  string ->
  unit

(** Counter [key] of a finished span (0 when never bumped). *)
val counter : span -> string -> int

(** All counters of a span, sorted by name. *)
val counters : span -> (string * int) list

(* ------------------------------------------------------------------ *)
(* JSONL rendering                                                     *)
(* ------------------------------------------------------------------ *)

(** Escape a string for inclusion in a JSON string literal. *)
val json_escape : string -> string

(** Render a float so [float_of_string] round-trips it exactly
    ([%.17g]); NaN renders as [null]. *)
val float_lit : float -> string

(** One span as a single-line JSON object (the JSONL record). *)
val span_to_json : span -> string

val spans_to_jsonl : span list -> string

(** A sink that appends each finished span to [path] as one JSON line.
    Returns the sink and a [close] function flushing the file. *)
val jsonl_file_sink : string -> sink * (unit -> unit)

exception Parse_error of string

(** Minimal JSON for the flat span schema. *)
type json = Jnull | Jnum of float | Jstr of string | Jobj of (string * json) list

(** Parse one JSON value; raises {!Parse_error} on malformed input. *)
val parse_json : string -> json

(** Parse one JSONL record back into a span (inverse of
    {!span_to_json}; raises {!Parse_error} on malformed input). *)
val span_of_json : string -> span

val spans_of_jsonl : string -> span list
val write_jsonl : path:string -> span list -> unit
val read_jsonl : path:string -> span list
