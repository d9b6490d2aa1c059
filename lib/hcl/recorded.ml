(** The attributes a deployment state records for one resource: a map
    built in memory, or an object of a state text, written as
    {!Codec.add_map} writes it, that {!Codec} checked when the text was
    loaded and left unread.  An unread object is read whole on the
    first {!map}, and kept; {!find} reads one entry and {!holds}
    compares entries with values without reading the rest, or anything
    at all when each entry is written as {!Codec.add_value} writes the
    value it is compared with. *)

module Smap = Value.Smap

type t = Map of Value.t Smap.t | Text of text

and text = {
  src : string;
  obj : Codec.unread;  (** the object in [src] *)
  shapes : Codec.shapes;  (** shared by the objects of one text *)
  mutable map : Value.t Smap.t option;  (** once read whole *)
  mutable found : (string * Value.t option) list;
      (** the entries {!find} read alone *)
}

let of_map m = Map m

(** The object [obj] of [src], which {!Codec.check_object} passed, read
    with [shapes] on demand. *)
let of_text ~shapes src obj = Text { src; obj; shapes; map = None; found = [] }

(** The attribute map, read whole from the text on the first call. *)
let map = function
  | Map m | Text { map = Some m; _ } -> m
  | Text x ->
      let m = Codec.read_object ~shapes:x.shapes x.src x.obj in
      x.map <- Some m;
      x.found <- [];
      m

(** One attribute, read alone from a text not yet read whole; an
    attribute read once is kept. *)
let find t k =
  match t with
  | Map m | Text { map = Some m; _ } -> Smap.find_opt k m
  | Text x -> (
      let rec known = function
        | (k', v) :: rest -> if String.equal k k' then Some v else known rest
        | [] -> None
      in
      match known x.found with
      | Some v -> v
      | None ->
          let v = Codec.read_entry ~shapes:x.shapes x.src x.obj k in
          x.found <- (k, v) :: x.found;
          v)

(* Whether [r] gives every key of [m] a value [Value.equal] to [m]'s. *)
let within r m =
  Smap.for_all
    (fun k v ->
      match Smap.find_opt k r with
      | Some rv -> Value.equal v rv
      | None -> false)
    m

(** Whether the attributes give every key of [m] a value
    [Value.equal] to [m]'s, as a plan's diff compares them. *)
let holds t m =
  match t with
  | Map r | Text { map = Some r; _ } -> within r m
  | Text x -> (
      match Codec.object_holds x.src x.obj m with
      | Some b -> b
      | None -> within (map t) m)

(** Whether attribute [k] is the string [s]: {!holds} for one
    binding, without building a map. *)
let string_is t k s =
  match t with
  | Map m | Text { map = Some m; _ } -> (
      match Smap.find_opt k m with
      | Some (Value.Vstring v) -> String.equal v s
      | _ -> false)
  | Text x -> (
      match Codec.entry_is_string x.src x.obj k s with
      | Some b -> b
      | None -> (
          match find t k with
          | Some (Value.Vstring v) -> String.equal v s
          | _ -> false))

(** Whether the attributes are [m] itself, already read. *)
let is_map t m =
  match t with
  | Map r | Text { map = Some r; _ } -> r == m
  | Text { map = None; _ } -> false

(** Whether some attribute was read from the text: always for a map. *)
let read = function
  | Map _ | Text { map = Some _; _ } -> true
  | Text { found; _ } -> found <> []

(** Whether the whole map was built: always for a map. *)
let decoded = function Map _ | Text { map = Some _; _ } -> true | Text _ -> false
