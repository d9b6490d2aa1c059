(** Runtime values of HCL expressions.

    Mirrors Terraform's value domain: null, bool, number (int/float),
    string, list, map/object — plus {!Vunknown}, the "(known after
    apply)" marker.  An unknown value carries a provenance string (the
    address of the attribute it will eventually come from) so plans can
    explain where uncertainty originates. *)

module Smap = Map.Make (String)

type t =
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vlist of t list
  | Vmap of t Smap.t
  | Vunknown of string  (** provenance, e.g. ["aws_instance.web.id"] *)

(* A conversion or operation on a value of the wrong type: an
   unlocated [references/type-error], which the evaluator locates at
   the expression that applied it. *)
let type_error fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.References
    ~code:"type-error" fmt

let unknown provenance = Vunknown provenance

let is_unknown = function Vunknown _ -> true | _ -> false

(** Whether any part of the value is unknown (deep check). *)
let rec has_unknown = function
  | Vunknown _ -> true
  | Vlist vs -> List.exists has_unknown vs
  | Vmap m -> Smap.exists (fun _ v -> has_unknown v) m
  | Vnull | Vbool _ | Vint _ | Vfloat _ | Vstring _ -> false

let of_assoc kvs = Vmap (Smap.of_seq (List.to_seq kvs))

let to_assoc = function
  | Vmap m -> Smap.bindings m
  | v -> type_error "expected a map, got %s" (match v with
      | Vnull -> "null" | Vbool _ -> "bool" | Vint _ | Vfloat _ -> "number"
      | Vstring _ -> "string" | Vlist _ -> "list" | Vunknown _ -> "unknown"
      | Vmap _ -> assert false)

let type_name = function
  | Vnull -> "null"
  | Vbool _ -> "bool"
  | Vint _ -> "number"
  | Vfloat _ -> "number"
  | Vstring _ -> "string"
  | Vlist _ -> "list"
  | Vmap _ -> "map"
  | Vunknown _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let truthy = function
  | Vbool b -> b
  | Vnull -> false
  | Vstring "true" -> true
  | Vstring "false" -> false
  | v -> type_error "expected a bool, got %s" (type_name v)

let to_int = function
  | Vint n -> n
  | Vfloat f when Float.is_integer f -> int_of_float f
  | Vstring s as v -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> type_error "expected an integer, got string %S" (match v with Vstring s -> s | _ -> ""))
  | v -> type_error "expected an integer, got %s" (type_name v)

let to_float = function
  | Vint n -> float_of_int n
  | Vfloat f -> f
  | Vstring s as v -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> type_error "expected a number, got %s" (type_name v))
  | v -> type_error "expected a number, got %s" (type_name v)

(* Integral floats print as integers; any other float prints with the
   fewest significant digits (15, 16 or 17) that read back to it, so
   every text that records a value (state, journal, [fmt], plans) keeps
   it exactly. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    string_of_int (int_of_float f)
  else
    let s = Printf.sprintf "%.15g" f in
    if Float.equal (float_of_string s) f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let to_string = function
  | Vstring s -> s
  | Vint n -> string_of_int n
  | Vfloat f -> float_to_string f
  | Vbool b -> string_of_bool b
  | Vnull -> ""
  | Vunknown p -> Printf.sprintf "(known after apply: %s)" p
  | (Vlist _ | Vmap _) as v ->
      type_error "cannot convert %s to string" (type_name v)

let to_list = function
  | Vlist vs -> vs
  | Vmap m -> List.map snd (Smap.bindings m)
  | v -> type_error "expected a list, got %s" (type_name v)

let to_map = function
  | Vmap m -> m
  | v -> type_error "expected a map, got %s" (type_name v)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(* Numbers compare across int/float; unknowns are equal only to the same
   provenance (conservative). *)
let rec equal a b =
  match (a, b) with
  | Vint x, Vfloat y | Vfloat y, Vint x -> Float.equal (float_of_int x) y
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> Float.equal x y
  | Vstring x, Vstring y -> String.equal x y
  | Vbool x, Vbool y -> Bool.equal x y
  | Vnull, Vnull -> true
  | Vlist xs, Vlist ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Vmap xm, Vmap ym -> Smap.equal equal xm ym
  | Vunknown x, Vunknown y -> String.equal x y
  | _ -> false

let rec compare_values a b =
  match (a, b) with
  | Vint x, Vint y -> compare x y
  | (Vint _ | Vfloat _), (Vint _ | Vfloat _) ->
      Float.compare (to_float a) (to_float b)
  | Vstring x, Vstring y -> String.compare x y
  | Vbool x, Vbool y -> Bool.compare x y
  | Vnull, Vnull -> 0
  | Vlist xs, Vlist ys -> List.compare compare_values xs ys
  | Vmap xm, Vmap ym -> Smap.compare compare_values xm ym
  | _ -> compare (type_name a) (type_name b)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* A string with nothing to escape is returned as it is, without a
   copy: the state digest escapes every string value it renders. *)
let escape_string s =
  let special = function
    | '"' | '\\' | '\n' | '\t' | '\r' -> true
    | _ -> false
  in
  if not (String.exists special s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let rec pp ppf = function
  | Vnull -> Fmt.string ppf "null"
  | Vbool b -> Fmt.bool ppf b
  | Vint n -> Fmt.int ppf n
  | Vfloat f -> Fmt.string ppf (float_to_string f)
  | Vstring s -> Fmt.pf ppf "\"%s\"" (escape_string s)
  | Vunknown p -> Fmt.pf ppf "(known after apply: %s)" p
  | Vlist vs -> Fmt.pf ppf "[@[<hov>%a@]]" Fmt.(list ~sep:comma pp) vs
  | Vmap m ->
      let pp_kv ppf (k, v) = Fmt.pf ppf "%s = %a" k pp v in
      Fmt.pf ppf "{@[<hov>%a@]}"
        Fmt.(list ~sep:comma pp_kv)
        (Smap.bindings m)

let show v = Fmt.str "%a" pp v

(* ------------------------------------------------------------------ *)
(* JSON-ish serialization (used by the state store)                    *)
(* ------------------------------------------------------------------ *)

let rec to_json buf = function
  | Vnull -> Buffer.add_string buf "null"
  | Vbool b -> Buffer.add_string buf (string_of_bool b)
  | Vint n -> Buffer.add_string buf (string_of_int n)
  | Vfloat f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Vstring s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | Vunknown p ->
      Buffer.add_string buf "{\"__unknown__\":\"";
      Buffer.add_string buf (escape_string p);
      Buffer.add_string buf "\"}"
  | Vlist vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_json buf v)
        vs;
      Buffer.add_char buf ']'
  | Vmap m ->
      Buffer.add_char buf '{';
      let first = ref true in
      Smap.iter
        (fun k v ->
          if !first then first := false else Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\":";
          to_json buf v)
        m;
      Buffer.add_char buf '}'

let to_json_string v =
  let buf = Buffer.create 128 in
  to_json buf v;
  Buffer.contents buf
