(** Per-resource-type service-time model.

    Calibrated mean provisioning times (seconds) with multiplicative
    jitter; the skew between slow resources (gateways, databases) and
    fast ones (rules, records) is what makes critical-path scheduling
    matter (§3.3).

    The table is indexed by resource type once, at startup, so a
    lookup is one hash probe and {!sample} makes one per duration. *)

type op_kind = Op_create | Op_update | Op_delete | Op_read

type profile = {
  create_mean : float;
  update_mean : float;
  delete_mean : float;
  jitter : float;  (** multiplicative amplitude, e.g. 0.2 = ±20% *)
}

(** The calibrated profiles, by resource type.  A type absent from it
    gets a generic default. *)
val table : (string * profile) list

(** Profile for a resource type (a generic default when unknown). *)
val find : string -> profile

(** Sampled duration with deterministic jitter from the PRNG: one
    [Prng.float_range] draw per call. *)
val sample : Prng.t -> string -> op_kind -> float

(** Expected (mean) duration — used by planners, consumes no
    randomness. *)
val expected : string -> op_kind -> float
