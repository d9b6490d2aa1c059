(** Transactions over the golden-state database (§3.4).

    "We need a lock manager backed by an IaC database that reflects the
    'golden state' of the cloud infrastructure, as well as transaction
    mechanisms for atomic updates while guaranteeing isolation.
    Updates are scheduled based on the logical state and locks in the
    database, and only later applied to the physical infrastructure."

    Implemented exactly that way: a transaction declares its write set,
    acquires locks (two-phase), stages logical updates against the
    golden {!Cloudless_state.State}, commits them atomically (bumping
    the serial), and releases.  An optimistic mode skips locks and
    validates the serial at commit, retrying on conflict. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module State = Cloudless_state.State

type store = {
  mutable golden : State.t;
  mutable commits : int;
  mutable aborts : int;
}

let create_store state = { golden = state; commits = 0; aborts = 0 }

type op =
  | Set_attr of Addr.t * string * Value.t
  | Remove_resource of Addr.t
  | Add_resource of State.resource_state

type txn = {
  owner : string;
  begin_serial : int;
  mutable ops : op list;  (** reverse order *)
}

let begin_txn store ~owner =
  { owner; begin_serial = State.serial store.golden; ops = [] }

let owner txn = txn.owner

let stage txn op = txn.ops <- op :: txn.ops

(** Write set of a transaction (the keys its locks must cover). *)
let write_set txn =
  List.map
    (function
      | Set_attr (a, _, _) -> a
      | Remove_resource a -> a
      | Add_resource r -> r.State.addr)
    txn.ops
  |> List.sort_uniq Addr.compare

let apply_op state = function
  | Set_attr (addr, attr, v) -> (
      match State.find_opt state addr with
      | Some r ->
          State.update_attrs state addr (Smap.add attr v (State.attrs r))
      | None -> state)
  | Remove_resource addr -> State.remove state addr
  | Add_resource r -> State.add state r

(** Atomic commit under locks (caller must hold the write set). *)
let commit_locked store txn =
  let state =
    List.fold_left apply_op store.golden (List.rev txn.ops)
  in
  store.golden <- state;
  store.commits <- store.commits + 1

(** Optimistic commit: succeeds only if nobody committed since
    [begin_txn]; otherwise aborts (caller retries with a fresh
    transaction). *)
let commit_optimistic store txn =
  if State.serial store.golden = txn.begin_serial then begin
    commit_locked store txn;
    Ok ()
  end
  else begin
    store.aborts <- store.aborts + 1;
    Error `Conflict
  end

(** Serializable read inside a transaction: reads the golden state as
    of now (2PL makes this safe when locks are held). *)
let read store addr = State.find_opt store.golden addr
