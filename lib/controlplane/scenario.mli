(** Service-load scenarios for the control plane.

    A scenario is a small [key = value] text file describing a
    multi-tenant workload: tenant/deployment counts, fleet size,
    revision cadence, out-of-band drift volume, and — since E15 —
    fleet shape (shard count, hot tenants, admission bound,
    rebalance period).  {!install_fleet} compiles it into
    simulated-clock callbacks against a {!Fleet.t}.

    The installer takes the fleet by [ref] so that a crash-resume
    mid-scenario (which builds a {e new} fleet on the same cloud) does
    not strand the not-yet-fired request callbacks: they dereference at
    fire time and land on the successor. *)

(** One scheduled bulk-change rollout (E18).  One per
    [wave = start=... attr=... value=...] line; sub-keys are
    [start canary growth check budget rtype kind] plus [attr value]
    (kind=set_attr, the default) or [count] (kind=set_count), and an
    optional [forbid=<value>] compiling to an attr-equals gate.
    Unknown sub-keys and kind-inapplicable keys are syntax errors. *)
type wave_spec = {
  wstart : float;  (** rollout submit instant, sim seconds *)
  wcheck : float;  (** gate-check poll period, sim seconds *)
  wchange : Cloudless_wave.Change.t;
}

type t = {
  tenants : int;
  deployments_per_tenant : int;
  resources : int;  (** fleet size per deployment *)
  requests_per_tenant : int;
      (** config revisions pushed per deployment, including the initial
          apply at t=0 (all tenants submit simultaneously) *)
  request_interval : float;  (** sim seconds between revision waves *)
  drift_events : int;  (** OOB injections spread over the drift window *)
  drift_period : float;
      (** scan-sweep period of the baseline preset; also paces the drift
          injection window *)
  policy_period : float;  (** 0 = no policy controller *)
  duration : float;  (** scenario horizon, sim seconds *)
  shards : int;  (** fleet shard count (E15) *)
  hot_tenants : int;
      (** tenants 0..n-1 burst-submit conflicting requests each wave,
          holding their shard's queue deep enough for the rebalancer
          and the admission bound to observe *)
  hot_burst : int;  (** extra same-instant requests per hot tenant wave *)
  max_queue_depth : int;  (** admission bound; 0 = unbounded *)
  admission : Shard.admission;  (** over-bound policy: defer | reject *)
  rebalance_period : float;  (** fleet rebalance check period; 0 = off *)
  episodes : Cloudless_sim.Failure.episode list;
      (** time-windowed fault regimes, in file order (E17).  One per
          [episode = kind=... start=... end=...] line; sub-keys are
          [kind rtype region start end] plus the kind's magnitude
          ([p] for error_storm, [retry_after] for throttle_storm,
          [quota] for quota_cut, [count] for spot).  Unknown sub-keys
          and kind-inapplicable magnitudes are syntax errors. *)
  breaker : bool;
      (** [breaker = on|off]: arm per-shard circuit breakers (E17) *)
  calm_tenants : int;
      (** the last n tenants resubmit only the wave-0 revision — a
          guaranteed-unaffected tenant class for degraded-mode claims *)
  waves : wave_spec list;
      (** scheduled bulk-change rollouts, in file order (E18) *)
}

val default : t

(** Parse [key = value] lines ([#] comments allowed).  Every number,
    top-level or inside an [episode =] or [wave =] value, is finite;
    [tenants], [deployments_per_tenant], [resources] and [shards] are
    at least 1, [drift_period], [duration] and a wave's [check] are
    above 0, and every other number is at least 0.  Unknown keys and
    malformed or out-of-range values fail with a scenario-syntax
    diagnostic whose span is the offending line of [file]. *)
val parse : ?file:string -> string -> t

val load : string -> t

(** The per-deployment configuration source for revision [wave]
    (instance type rotates per wave so every revision actually
    changes the fleet). *)
val fleet_src : t -> wave:int -> string

(** Specialize a service preset (timing knobs, admission, breakers) to
    a scenario. *)
val service_config : t -> Shard.service_config -> Shard.service_config

(** Register every tenant's deployments on [fleet] and submit their
    wave-0 revision now: the fleet a rollout starts from, with none of
    the request, drift or episode schedule installed. *)
val bootstrap : t -> Fleet.t -> unit

type injection = {
  icloud_id : string;
  injected_at : float;
  deleted : bool;  (** true: delete_oob; false: attr mutation *)
  itenant : string;  (** owning tenant at injection time *)
}

(** Register all deployments on [!fleet_ref] and schedule the request
    waves, hot-tenant request bursts (see {!t.hot_tenants}; none at
    [hot_tenants = 0]) and drift injections on its cloud.  When the
    scenario has episodes, also installs them on the cloud and
    schedules the spot-termination waves (out-of-band deletes under the
    "spot" script, recorded in the injection log).  Returns the
    injection log (filled as injections actually fire). *)
val install_fleet : t -> Fleet.t ref -> injection list ref
