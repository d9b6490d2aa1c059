(** Circuit breakers keyed by (cloud API kind, resource type).

    A cell trips Open after [failure_threshold] consecutive failures,
    rejects all traffic for a cooldown window (fast-fail: no cloud
    call, no retry budget burned), then admits exactly one half-open
    probe whose outcome closes the cell or re-opens it with a longer
    cooldown.  Deterministic: no PRNG, no wall clock — callers pass
    simulated [now]. *)

type config = {
  failure_threshold : int;
      (** consecutive failures that trip a Closed cell Open *)
  cooldown : float;  (** seconds a fresh trip stays Open *)
  cooldown_factor : float;
      (** cooldown multiplier per consecutive re-trip (backoff) *)
  max_cooldown : float;
}

(** threshold 5, cooldown 30 s doubling per re-trip, capped at 600 s *)
val default_config : config

type state = Closed | Open | Half_open

type t

(** [on_transition] fires on every cell state change (trip, probe
    admission, close) — the shard hangs metrics and degraded-mode
    tracking off it. *)
val create :
  ?config:config ->
  ?on_transition:
    (kind:string ->
    rtype:string ->
    before:state ->
    after:state ->
    now:float ->
    unit) ->
  unit ->
  t

(** Ask permission to issue one cloud call.  [`Reject d]: the cell is
    Open (or a half-open probe is in flight); fail fast and retry no
    earlier than [d] seconds from now.  An Open cell past its cooldown
    moves to Half_open and grants the caller the probe slot. *)
val acquire :
  t -> now:float -> kind:string -> rtype:string -> [ `Proceed | `Reject of float ]

(** Record a successful cloud call: resets the failure run; closes the
    cell if this was the half-open probe. *)
val success : t -> now:float -> kind:string -> rtype:string -> unit

(** Record a call the cloud answered with a non-retryable error (not
    found, invalid): the API is up, so a half-open probe closes the
    cell; a Closed cell's failure run is left as it is.  With
    {!success} and {!failure}, every answered probe settles its cell. *)
val answered : t -> now:float -> kind:string -> rtype:string -> unit

(** Record a failed retryable cloud call: extends the failure run,
    trips the cell at the threshold; a failed half-open probe re-opens
    with a longer cooldown. *)
val failure : t -> now:float -> kind:string -> rtype:string -> unit

val state : t -> kind:string -> rtype:string -> state
val open_cells : t -> int
val any_open : t -> bool

(** The end of the cell's cooldown, when the cell is Open: the time it
    admits a half-open probe.  [None] for a Closed or Half_open cell. *)
val cooldown_end : t -> kind:string -> rtype:string -> float option

(** Earliest time any Open cell will admit a half-open probe. *)
val next_probe_at : t -> float option

(** Tripwire for "no cloud call while Open": call at the submit site
    after {!acquire} granted the call; increments {!violations} if the
    cell is somehow Open. *)
val note_issue : t -> kind:string -> rtype:string -> unit

(** Calls fast-failed by {!acquire}. *)
val rejections : t -> int

(** {!note_issue} observations of a call issued while Open — always 0
    unless a call path bypasses the breaker. *)
val violations : t -> int

(** The human-readable failure reason of a change fast-failed by an
    Open cell, [remaining] seconds before its probe. *)
val open_reason : kind:string -> rtype:string -> float -> string
