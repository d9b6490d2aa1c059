(** The §3.4 "time machine": version control for (configuration, state)
    pairs, enabling faithful rollback planning. *)

type version = {
  id : int;
  parent : int option;
  description : string;
  config_src : string;  (** the IaC program text at this version *)
  state : State.t;
  created_at : float;  (** simulated time *)
}

type t

val create : unit -> t

val head : t -> int option
val find : t -> int -> version option

(** Record a new version on top of the current head and move head to
    it; returns the new id. *)
val checkpoint :
  t -> time:float -> description:string -> config_src:string -> state:State.t -> int

(** All versions, oldest first. *)
val history : t -> version list

val length : t -> int

(** Move head back to an earlier version. *)
val reset_head : t -> int -> (unit, string) result

(** Chain from the root to [id], oldest first. *)
val lineage : t -> int -> version list

val diff_versions : t -> from_id:int -> to_id:int -> (State.state_diff, string) result

val pp_version : Format.formatter -> version -> unit
