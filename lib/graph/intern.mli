(** Address interner: dense int ids for {!Cloudless_hcl.Addr.t}.

    One table per compiled structure (a compiled {!Dag}, a plan
    execution graph); ids are assigned in interning order starting at
    0 and are stable for the table's lifetime.  Ids from different
    tables are unrelated — never mix them. *)

module Addr := Cloudless_hcl.Addr

type t

(** [create ?capacity ()] makes an empty table; [capacity] pre-sizes
    the id array and hash table (growable afterwards). *)
val create : ?capacity:int -> unit -> t

(** Number of distinct addresses interned so far; ids are
    [0 .. length t - 1]. *)
val length : t -> int

(** Id of the address, minting the next dense id on first sight. *)
val intern : t -> Addr.t -> int

val find_opt : t -> Addr.t -> int option
val mem : t -> Addr.t -> bool

(** Address of a minted id; raises {!Cloudless_error.Error} when out of
    range. *)
val addr : t -> int -> Addr.t
