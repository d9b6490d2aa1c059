(** The §3.4 "time machine": version control for (configuration, state)
    pairs.

    Every applied change checkpoints the configuration source together
    with the resulting deployment state, so rollback planning can pair
    "the config we want to return to" with "the state the world was in
    when that config was live" — the paper notes that replaying an old
    config alone is *not* a faithful rollback. *)

type version = {
  id : int;
  parent : int option;
  description : string;
  config_src : string;  (** the IaC program text at this version *)
  state : State.t;
  created_at : float;  (** simulated time *)
}

type t = {
  mutable versions : version list;  (** newest first *)
  mutable next_id : int;
  mutable head : int option;
}

let create () = { versions = []; next_id = 0; head = None }

let head t = t.head

let find t id = List.find_opt (fun v -> v.id = id) t.versions

(** Record a new version on top of the current head and move head to
    it.  Returns the new version id. *)
let checkpoint t ~time ~description ~config_src ~state =
  let v =
    {
      id = t.next_id;
      parent = t.head;
      description;
      config_src;
      state;
      created_at = time;
    }
  in
  t.next_id <- t.next_id + 1;
  t.versions <- v :: t.versions;
  t.head <- Some v.id;
  v.id

(** All versions, oldest first. *)
let history t = List.rev t.versions

let length t = List.length t.versions

(** Move head back to an earlier version (the state/config pair a
    rollback should target).  The versions after it are kept — a
    rollback is itself recorded as a new checkpoint by the caller. *)
let reset_head t id =
  match find t id with
  | None -> Error (Printf.sprintf "unknown version %d" id)
  | Some _ ->
      t.head <- Some id;
      Ok ()

(** Chain of versions from [id] back to the root, newest first. *)
let lineage t id =
  let rec go acc = function
    | None -> List.rev acc
    | Some id -> (
        match find t id with
        | None -> List.rev acc
        | Some v -> go (v :: acc) v.parent)
  in
  List.rev (go [] (Some id))

(** State diff between two recorded versions. *)
let diff_versions t ~from_id ~to_id =
  match (find t from_id, find t to_id) with
  | Some a, Some b -> Ok (State.diff a.state b.state)
  | None, _ -> Error (Printf.sprintf "unknown version %d" from_id)
  | _, None -> Error (Printf.sprintf "unknown version %d" to_id)

let pp_version ppf v =
  Fmt.pf ppf "v%d%s (%d resources) %s" v.id
    (match v.parent with Some p -> Printf.sprintf " <- v%d" p | None -> "")
    (State.size v.state) v.description
