(** Resource addresses.

    An address uniquely identifies one resource *instance* in a
    configuration, Terraform-style:
    [module.net.aws_subnet.private\[2\]], [data.aws_region.current],
    [aws_vpc.main\["east"\]]. *)

type mode = Managed | Data

type instance_key =
  | Knone  (** a singleton resource (no count/for_each) *)
  | Kint of int  (** produced by [count] *)
  | Kstr of string  (** produced by [for_each] *)

type t = {
  module_path : string list;  (** outermost module first *)
  mode : mode;
  rtype : string;
  rname : string;
  key : instance_key;
}

let make ?(module_path = []) ?(mode = Managed) ?(key = Knone) ~rtype ~rname () =
  { module_path; mode; rtype; rname; key }

(* A string key renders as an OCaml string literal, as [%S] would. *)
let key_to_string = function
  | Knone -> ""
  | Kint i -> String.concat "" [ "["; string_of_int i; "]" ]
  | Kstr s -> String.concat "" [ "[\""; String.escaped s; "\"]" ]

(* One [String.concat] of the parts: an instance is rendered once per
   expansion and once per state row written, so no format
   interpreter. *)
let to_string a =
  let tail = [ a.rtype; "."; a.rname; key_to_string a.key ] in
  let tail = match a.mode with Managed -> tail | Data -> "data." :: tail in
  String.concat ""
    (List.fold_right (fun m acc -> "module." :: m :: "." :: acc) a.module_path tail)

let pp ppf a = Fmt.string ppf (to_string a)

(* Hand-specialized structural compare, byte-for-byte the same order
   [Stdlib.compare] produces on this type (field by field; [Knone] <
   [Kint _] < [Kstr _] because constant constructors order before
   blocks and [Kint]'s tag precedes [Kstr]'s) — existing sorted
   structures are unaffected.  The generic compare walk dominated the
   1M-resource rank sort; the specialized one is mostly [String.compare]
   (memcmp). *)
let compare_key a b =
  match (a, b) with
  | Knone, Knone -> 0
  | Knone, _ -> -1
  | _, Knone -> 1
  | Kint i, Kint j -> Int.compare i j
  | Kint _, Kstr _ -> -1
  | Kstr _, Kint _ -> 1
  | Kstr s, Kstr t -> String.compare s t

let rec compare_path (p : string list) (q : string list) =
  match (p, q) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: p', y :: q' ->
      let c = String.compare x y in
      if c <> 0 then c else compare_path p' q'

let compare_mode a b =
  match (a, b) with
  | Managed, Managed | Data, Data -> 0
  | Managed, Data -> -1
  | Data, Managed -> 1

let compare a b =
  if a == b then 0
  else
    let c = compare_path a.module_path b.module_path in
    if c <> 0 then c
    else
      let c = compare_mode a.mode b.mode in
      if c <> 0 then c
      else
        let c = String.compare a.rtype b.rtype in
        if c <> 0 then c
        else
          let c = String.compare a.rname b.rname in
          if c <> 0 then c else compare_key a.key b.key

let equal a b = compare a b = 0

(** Same resource block, ignoring the instance key — e.g.
    [aws_subnet.s\[0\]] and [aws_subnet.s\[3\]] share a base. *)
let same_base a b =
  a.module_path = b.module_path && a.mode = b.mode && a.rtype = b.rtype
  && a.rname = b.rname

let base a = { a with key = Knone }

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(** Parse the canonical rendering produced by {!to_string}.  Returns
    [None] on malformed input. *)
let of_string s =
  let rec split_modules acc rest =
    match String.index_opt rest '.' with
    | Some (6 as i) when String.starts_with ~prefix:"module" rest -> (
        let after = String.sub rest (i + 1) (String.length rest - i - 1) in
        match String.index_opt after '.' with
        | Some j ->
            let m = String.sub after 0 j in
            split_modules (m :: acc)
              (String.sub after (j + 1) (String.length after - j - 1))
        | None -> (List.rev acc, rest))
    | _ -> (List.rev acc, rest)
  in
  let module_path, rest = split_modules [] s in
  let mode, rest =
    if String.length rest > 5 && String.starts_with ~prefix:"data." rest then
      (Data, String.sub rest 5 (String.length rest - 5))
    else (Managed, rest)
  in
  (* the key is everything between the first '[' and a closing ']'
     that ends the string: a quoted key must be one whole OCaml string
     literal, anything else an int or (legacy) bare text *)
  let key_of inner =
    if inner = "" then None
    else if inner.[0] = '"' then
      match Scanf.sscanf inner "%S%!" (fun s -> s) with
      | s -> Some (Kstr s)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
    else
      match int_of_string_opt inner with
      | Some n -> Some (Kint n)
      | None -> Some (Kstr inner)
  in
  let split_key rest =
    match String.index_opt rest '[' with
    | None -> Some (rest, Knone)
    | Some i ->
        let n = String.length rest in
        if rest.[n - 1] <> ']' then None
        else
          Option.map
            (fun key -> (String.sub rest 0 i, key))
            (key_of (String.sub rest (i + 1) (n - i - 2)))
  in
  match split_key rest with
  | None -> None
  | Some (rest, key) -> (
      match String.index_opt rest '.' with
      | Some i ->
          let rtype = String.sub rest 0 i in
          let rname = String.sub rest (i + 1) (String.length rest - i - 1) in
          if rtype = "" || rname = "" then None
          else Some { module_path; mode; rtype; rname; key }
      | None -> None)
