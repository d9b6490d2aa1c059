(* Circuit breakers keyed by (cloud API kind, resource type).

   A cell trips Open after a run of consecutive failures, rejects all
   traffic for a cooldown window (fast-fail, no cloud call, no retry
   budget burned), then admits exactly one half-open probe; the probe's
   outcome closes the cell or re-opens it with a longer cooldown.  The
   machine is pure bookkeeping — deterministic, no PRNG, no clock of
   its own: callers pass simulated [now] on every transition-relevant
   call, so identical event orders give identical breaker histories. *)

type config = {
  failure_threshold : int;
      (** consecutive failures that trip a Closed cell Open *)
  cooldown : float;  (** seconds a fresh trip stays Open *)
  cooldown_factor : float;
      (** cooldown multiplier per consecutive re-trip (backoff) *)
  max_cooldown : float;
}

let default_config =
  {
    failure_threshold = 5;
    cooldown = 30.;
    cooldown_factor = 2.;
    max_cooldown = 600.;
  }

type state = Closed | Open | Half_open

type cell = {
  ckind : string;
  crtype : string;
  mutable cstate : state;
  mutable failures : int;  (** consecutive failures while Closed *)
  mutable trips : int;  (** consecutive Opens without a Close between *)
  mutable open_until : float;  (** when Open: earliest probe time *)
  mutable probing : bool;  (** when Half_open: probe in flight *)
}

type t = {
  config : config;
  cells : (string * string, cell) Hashtbl.t;
  mutable rejections : int;
  mutable violations : int;
  on_transition :
    kind:string -> rtype:string -> before:state -> after:state ->
    now:float -> unit;
}

let create ?(config = default_config)
    ?(on_transition = fun ~kind:_ ~rtype:_ ~before:_ ~after:_ ~now:_ -> ())
    () =
  { config; cells = Hashtbl.create 8; rejections = 0; violations = 0;
    on_transition }

let cell t ~kind ~rtype =
  let key = (kind, rtype) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c =
        { ckind = kind; crtype = rtype; cstate = Closed; failures = 0;
          trips = 0; open_until = 0.; probing = false }
      in
      Hashtbl.replace t.cells key c;
      c

let transition t c after ~now =
  if c.cstate <> after then begin
    let before = c.cstate in
    c.cstate <- after;
    t.on_transition ~kind:c.ckind ~rtype:c.crtype ~before ~after ~now
  end

(** Ask permission to issue one cloud call.  [`Reject d] means the
    cell is Open (or a half-open probe is already in flight): fail
    fast, retry no earlier than [d] seconds from now.  An Open cell
    whose cooldown has elapsed transitions to Half_open and grants the
    caller the probe slot. *)
let acquire t ~now ~kind ~rtype =
  match Hashtbl.find_opt t.cells (kind, rtype) with
  | None -> `Proceed  (* no history = Closed *)
  | Some c -> (
      match c.cstate with
      | Closed -> `Proceed
      | Open ->
          if now >= c.open_until then begin
            transition t c Half_open ~now;
            c.probing <- true;
            `Proceed
          end
          else begin
            t.rejections <- t.rejections + 1;
            `Reject (c.open_until -. now)
          end
      | Half_open ->
          if c.probing then begin
            t.rejections <- t.rejections + 1;
            `Reject 1.0  (* probe pending; its verdict lands shortly *)
          end
          else begin
            c.probing <- true;
            `Proceed
          end)

let trip t c ~now =
  c.trips <- c.trips + 1;
  let cd =
    Float.min t.config.max_cooldown
      (t.config.cooldown
      *. Float.pow t.config.cooldown_factor (float_of_int (c.trips - 1)))
  in
  c.open_until <- now +. cd;
  c.failures <- 0;
  transition t c Open ~now

(** Record a successful cloud call for this cell. *)
let success t ~now ~kind ~rtype =
  match Hashtbl.find_opt t.cells (kind, rtype) with
  | None -> ()
  | Some c -> (
      match c.cstate with
      | Closed -> c.failures <- 0
      | Half_open ->
          c.probing <- false;
          c.failures <- 0;
          c.trips <- 0;
          transition t c Closed ~now
      | Open -> ()  (* stale completion from before the trip *))

(** Record a failed (retryable) cloud call for this cell. *)
let failure t ~now ~kind ~rtype =
  let c = cell t ~kind ~rtype in
  match c.cstate with
  | Closed ->
      c.failures <- c.failures + 1;
      if c.failures >= t.config.failure_threshold then trip t c ~now
  | Half_open ->
      c.probing <- false;
      trip t c ~now
  | Open -> ()

let state t ~kind ~rtype =
  match Hashtbl.find_opt t.cells (kind, rtype) with
  | None -> Closed
  | Some c -> c.cstate

(** Record a cloud call answered with a non-retryable error (not found,
    invalid): the API is up, so a half-open probe closes the cell as a
    success would.  A Closed cell's failure run is left as it is. *)
let answered t ~now ~kind ~rtype =
  if state t ~kind ~rtype = Half_open then success t ~now ~kind ~rtype

let open_cells t =
  Hashtbl.fold (fun _ c n -> if c.cstate = Open then n + 1 else n) t.cells 0

let any_open t =
  Hashtbl.fold (fun _ c acc -> acc || c.cstate = Open) t.cells false

(** The end of an Open cell's cooldown: when it admits a half-open
    probe. *)
let cooldown_end t ~kind ~rtype =
  match Hashtbl.find_opt t.cells (kind, rtype) with
  | Some { cstate = Open; open_until; _ } -> Some open_until
  | Some _ | None -> None

(** Earliest time any Open cell will admit a half-open probe. *)
let next_probe_at t =
  Hashtbl.fold
    (fun _ c acc ->
      if c.cstate <> Open then acc
      else
        match acc with
        | None -> Some c.open_until
        | Some a -> Some (Float.min a c.open_until))
    t.cells None

(** Tripwire for the invariant "no cloud call is issued while the cell
    is Open": call at the submit site, after {!acquire} granted the
    call.  A grant leaves the cell Closed or Half_open, so observing
    Open here means a call path bypassed the breaker. *)
let note_issue t ~kind ~rtype =
  if state t ~kind ~rtype = Open then t.violations <- t.violations + 1

let rejections t = t.rejections
let violations t = t.violations

let open_reason ~kind ~rtype remaining =
  Printf.sprintf "breaker open: %s/%s unavailable (probe in %.1fs)" kind rtype
    remaining
