(** Specification mining over configuration corpora (§3.2).

    Following the Encore/association-rule line of work the paper cites,
    this module learns three kinds of specification from a corpus of
    existing configurations:

    - attribute *presence* rules ("resources of type T always set A"),
    - attribute *implication* rules ("when A is set, B is set too" —
      the admin_password/disable_password pattern),
    - semantic *type* observations (values of T.A always look like a
      CIDR), via {!Semantic_type.infer}.

    Mined specifications can be checked against a new configuration to
    flag deviations, and promoted into the {!Catalog} knowledge base. *)

module Value = Cloudless_hcl.Value
module Eval = Cloudless_hcl.Eval
module Smap = Value.Smap

type observation = {
  rtype : string;
  total : int;  (** instances of this type in the corpus *)
  attr_counts : (string * int) list;
  attr_types : (string * Semantic_type.t) list;
  pair_counts : ((string * string) * int) list;
      (** co-occurrence counts of attribute pairs *)
}

type spec =
  | Always_set of { rtype : string; attr : string; confidence : float }
  | Implies of {
      rtype : string;
      if_attr : string;
      then_attr : string;
      confidence : float;
    }
  | Has_type of { rtype : string; attr : string; ty : Semantic_type.t }

let spec_to_string = function
  | Always_set { rtype; attr; confidence } ->
      Printf.sprintf "%s always sets %s (conf %.2f)" rtype attr confidence
  | Implies { rtype; if_attr; then_attr; confidence } ->
      Printf.sprintf "%s: %s => %s (conf %.2f)" rtype if_attr then_attr
        confidence
  | Has_type { rtype; attr; ty } ->
      Printf.sprintf "%s.%s : %s" rtype attr (Semantic_type.to_string ty)

(* ------------------------------------------------------------------ *)
(* Corpus scanning                                                     *)
(* ------------------------------------------------------------------ *)

let observe (corpus : Eval.instance list list) : observation list =
  let tbl : (string, (string, int) Hashtbl.t
                     * (string, Semantic_type.t) Hashtbl.t
                     * (string * string, int) Hashtbl.t
                     * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun instances ->
      List.iter
        (fun (i : Eval.instance) ->
          let rtype = i.Eval.addr.Cloudless_hcl.Addr.rtype in
          let counts, types, pairs, total =
            match Hashtbl.find_opt tbl rtype with
            | Some e -> e
            | None ->
                let e =
                  (Hashtbl.create 8, Hashtbl.create 8, Hashtbl.create 8, ref 0)
                in
                Hashtbl.replace tbl rtype e;
                e
          in
          incr total;
          let attrs = Smap.bindings (Eval.merged i) in
          List.iter
            (fun (name, v) ->
              Hashtbl.replace counts name
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts name));
              let inferred = Semantic_type.infer v in
              let merged =
                match Hashtbl.find_opt types name with
                | Some prev -> Semantic_type.join prev inferred
                | None -> inferred
              in
              Hashtbl.replace types name merged)
            attrs;
          (* ordered pairs for implication mining *)
          List.iter
            (fun (a, _) ->
              List.iter
                (fun (b, _) ->
                  if a <> b then
                    Hashtbl.replace pairs (a, b)
                      (1 + Option.value ~default:0 (Hashtbl.find_opt pairs (a, b))))
                attrs)
            attrs)
        instances)
    corpus;
  Hashtbl.fold
    (fun rtype (counts, types, pairs, total) acc ->
      {
        rtype;
        total = !total;
        attr_counts =
          Hashtbl.fold (fun k v l -> (k, v) :: l) counts []
          |> List.sort compare;
        attr_types =
          Hashtbl.fold (fun k v l -> (k, v) :: l) types [] |> List.sort compare;
        pair_counts =
          Hashtbl.fold (fun k v l -> (k, v) :: l) pairs [] |> List.sort compare;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.rtype b.rtype)

(* ------------------------------------------------------------------ *)
(* Rule extraction                                                     *)
(* ------------------------------------------------------------------ *)

(** Extract specifications with at least [min_support] observations and
    [min_confidence] confidence. *)
let mine ?(min_support = 3) ?(min_confidence = 0.95)
    (corpus : Eval.instance list list) : spec list =
  let obs = observe corpus in
  List.concat_map
    (fun o ->
      if o.total < min_support then []
      else
        let always =
          List.filter_map
            (fun (attr, n) ->
              let conf = float_of_int n /. float_of_int o.total in
              if conf >= min_confidence then
                Some (Always_set { rtype = o.rtype; attr; confidence = conf })
              else None)
            o.attr_counts
        in
        let always_attrs =
          List.filter_map
            (function Always_set { attr; _ } -> Some attr | _ -> None)
            always
        in
        let implications =
          List.filter_map
            (fun ((a, b), n) ->
              match List.assoc_opt a o.attr_counts with
              | Some na when na >= min_support ->
                  let conf = float_of_int n /. float_of_int na in
                  (* skip implications already covered by Always_set b *)
                  if conf >= min_confidence && not (List.mem b always_attrs)
                  then
                    Some
                      (Implies
                         { rtype = o.rtype; if_attr = a; then_attr = b; confidence = conf })
                  else None
              | _ -> None)
            o.pair_counts
        in
        let types =
          List.filter_map
            (fun (attr, ty) ->
              match ty with
              | Semantic_type.Any | Semantic_type.Str -> None
              | ty -> Some (Has_type { rtype = o.rtype; attr; ty }))
            o.attr_types
        in
        always @ implications @ types)
    obs

(* ------------------------------------------------------------------ *)
(* Checking new configurations against mined specs                     *)
(* ------------------------------------------------------------------ *)

type deviation = {
  daddr : Cloudless_hcl.Addr.t;
  spec : spec;
  detail : string;
}

let deviation_to_string d =
  Printf.sprintf "%s deviates from mined spec [%s]: %s"
    (Cloudless_hcl.Addr.to_string d.daddr)
    (spec_to_string d.spec) d.detail

let has_attr i attr = Option.is_some (Eval.merged_attr i attr)

(** Outlier detection (§3.6): compare a new configuration's instances
    with mined specifications and report deviations from common
    practice. *)
let check_deviations (specs : spec list) (instances : Eval.instance list) :
    deviation list =
  List.concat_map
    (fun (i : Eval.instance) ->
      let rtype = i.Eval.addr.Cloudless_hcl.Addr.rtype in
      List.filter_map
        (fun spec ->
          match spec with
          | Always_set { rtype = rt; attr; _ } when rt = rtype ->
              if has_attr i attr then None
              else
                Some
                  {
                    daddr = i.Eval.addr;
                    spec;
                    detail = Printf.sprintf "attribute %S is missing" attr;
                  }
          | Implies { rtype = rt; if_attr; then_attr; _ } when rt = rtype ->
              if has_attr i if_attr && not (has_attr i then_attr)
              then
                Some
                  {
                    daddr = i.Eval.addr;
                    spec;
                    detail =
                      Printf.sprintf "%S set without %S" if_attr then_attr;
                  }
              else None
          | Has_type { rtype = rt; attr; ty } when rt = rtype -> (
              match Eval.merged_attr i attr with
              | None -> None
              | Some v -> (
                  match Semantic_type.check ty v with
                  | Ok () -> None
                  | Error msg ->
                      Some { daddr = i.Eval.addr; spec; detail = msg }))
          | _ -> None)
        specs)
    instances

(** Promote mined attribute types of an unknown resource type into a
    fresh knowledge-base entry. *)
let promote_to_schema (specs : spec list) ~rtype : Resource_schema.t option =
  let attrs =
    List.filter_map
      (function
        | Has_type { rtype = rt; attr; ty } when rt = rtype ->
            Some (Resource_schema.attr attr ty)
        | Always_set { rtype = rt; attr; _ } when rt = rtype ->
            Some (Resource_schema.attr ~required:true attr Semantic_type.Any)
        | _ -> None)
      specs
  in
  if attrs = [] then None
  else
    (* merge duplicate names, preferring typed entries *)
    let merged =
      List.fold_left
        (fun acc (a : Resource_schema.attr) ->
          match List.assoc_opt a.Resource_schema.aname acc with
          | None -> acc @ [ (a.Resource_schema.aname, a) ]
          | Some prev ->
              let better =
                if prev.Resource_schema.aty = Semantic_type.Any then
                  { a with Resource_schema.required = prev.Resource_schema.required || a.Resource_schema.required }
                else
                  { prev with Resource_schema.required = prev.Resource_schema.required || a.Resource_schema.required }
              in
              List.map
                (fun (n, x) -> if n = a.Resource_schema.aname then (n, better) else (n, x))
                acc)
        [] attrs
      |> List.map snd
    in
    let provider =
      match String.index_opt rtype '_' with
      | Some i -> String.sub rtype 0 i
      | None -> rtype
    in
    Some
      (Resource_schema.make ~rtype ~provider
         ~doc:(Printf.sprintf "mined from corpus") merged)
