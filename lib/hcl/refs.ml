(** Static reference extraction.

    Walks an expression without evaluating it and reports every
    reference to a variable, local, resource, data source or module
    output.  This is what lets us build the resource dependency graph
    *before* deployment (§2.1: "resulting in a resource dependency
    graph") and compute impact scopes for incremental updates (§3.3). *)

type target =
  | Tvar of string  (** [var.x] *)
  | Tlocal of string  (** [local.x] *)
  | Tresource of string * string  (** [aws_vpc.main] *)
  | Tdata of string * string  (** [data.aws_region.current] *)
  | Tmodule of string * string option  (** [module.net(.output)] *)
  | Tcount  (** [count.index] *)
  | Teach  (** [each.key] / [each.value] *)
  | Tpath  (** [path.module] etc. *)

let target_to_string = function
  | Tvar x -> "var." ^ x
  | Tlocal x -> "local." ^ x
  | Tresource (t, n) -> t ^ "." ^ n
  | Tdata (t, n) -> "data." ^ t ^ "." ^ n
  | Tmodule (m, Some o) -> "module." ^ m ^ "." ^ o
  | Tmodule (m, None) -> "module." ^ m
  | Tcount -> "count.index"
  | Teach -> "each"
  | Tpath -> "path"

let equal_target (a : target) (b : target) = a = b

(* Identifiers that root a reference chain but are bound by the language
   itself (for-expression variables are excluded separately). *)
let reserved = [ "var"; "local"; "data"; "module"; "count"; "each"; "path" ]

(** [of_expr e] lists the targets referenced by [e], outermost-first,
    without duplicates.  [bound] are identifiers bound by enclosing
    for-expressions and hence not references. *)
let of_expr ?(bound = []) (e : Ast.expr) : target list =
  let acc = ref [] in
  let add t = if not (List.exists (equal_target t) !acc) then acc := t :: !acc in
  let rec walk bound (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Null | Ast.Bool _ | Ast.Int _ | Ast.Float _ -> ()
    | Ast.Template parts ->
        List.iter
          (function Ast.Lit _ -> () | Ast.Interp e -> walk bound e)
          parts
    | Ast.Var name ->
        if List.mem name bound then ()
        else if List.mem name reserved then begin
          (* a bare reserved root (e.g. [each] passed to a function) *)
          match name with
          | "count" -> add Tcount
          | "each" -> add Teach
          | "path" -> add Tpath
          | _ -> ()
        end
        else
          (* A bare identifier that is not reserved and not bound:
             treated as a resource type missing its name — reported as a
             resource reference with empty name so validation can flag
             it. *)
          add (Tresource (name, ""))
    | Ast.GetAttr (inner, attr) -> walk_chain bound inner [ attr ]
    | Ast.Index (inner, idx) ->
        walk bound idx;
        walk bound inner
    | Ast.Splat (inner, _) -> walk bound inner
    | Ast.ListLit es -> List.iter (walk bound) es
    | Ast.ObjectLit kvs ->
        List.iter
          (fun (k, v) ->
            (match k with Ast.Kident _ -> () | Ast.Kexpr e -> walk bound e);
            walk bound v)
          kvs
    | Ast.Call (_, args, _) -> List.iter (walk bound) args
    | Ast.Unop (_, e) | Ast.Paren e -> walk bound e
    | Ast.Binop (_, a, b) ->
        walk bound a;
        walk bound b
    | Ast.Cond (c, a, b) ->
        walk bound c;
        walk bound a;
        walk bound b
    | Ast.ForList fc ->
        walk bound fc.coll;
        let bound' =
          fc.val_var :: (match fc.key_var with Some k -> [ k ] | None -> [])
          @ bound
        in
        walk bound' fc.body;
        Option.iter (walk bound') fc.cond
    | Ast.ForMap (fc, v) ->
        walk bound fc.coll;
        let bound' =
          fc.val_var :: (match fc.key_var with Some k -> [ k ] | None -> [])
          @ bound
        in
        walk bound' fc.body;
        walk bound' v;
        Option.iter (walk bound') fc.cond
  (* [walk_chain inner attrs] handles a GetAttr chain: [attrs] are the
     attribute names collected inside-out. *)
  and walk_chain bound (inner : Ast.expr) attrs =
    match (inner.Ast.desc, attrs) with
    | Ast.Var root, _ when List.mem root bound -> ()
    | Ast.Var "var", x :: _ -> add (Tvar x)
    | Ast.Var "local", x :: _ -> add (Tlocal x)
    | Ast.Var "count", "index" :: _ -> add Tcount
    | Ast.Var "each", _ -> add Teach
    | Ast.Var "path", _ -> add Tpath
    | Ast.Var "data", ty :: name :: _ -> add (Tdata (ty, name))
    | Ast.Var "data", [ _ ] -> ()
    | Ast.Var "module", m :: rest ->
        add (Tmodule (m, match rest with o :: _ -> Some o | [] -> None))
    | Ast.Var rtype, name :: _ -> add (Tresource (rtype, name))
    | Ast.Var _, [] -> ()
    | Ast.GetAttr (inner', a), _ -> walk_chain bound inner' (a :: attrs)
    | Ast.Index (inner', idx), _ ->
        walk bound idx;
        walk_chain bound inner' attrs
    | Ast.Splat (inner', a), _ -> walk_chain bound inner' (a :: attrs)
    | _ -> walk bound inner
  in
  walk bound e;
  List.rev !acc

(** All targets referenced anywhere in a body (attributes and nested
    blocks).  [dynamic] blocks bind their iterator name inside the
    content block, so [ingress.value.port] there is not a resource
    reference. *)
let of_body (body : Ast.body) : target list =
  let rec walk_body bound (body : Ast.body) =
    List.concat_map
      (fun (a : Ast.attribute) -> of_expr ~bound a.Ast.avalue)
      body.Ast.attrs
    @ List.concat_map
        (fun (b : Ast.block) ->
          match (b.Ast.btype, b.Ast.labels) with
          | "dynamic", [ gen_type ] ->
              let iterator =
                match Ast.attr b.Ast.bbody "iterator" with
                | Some { Ast.desc = Ast.Var it; _ } -> it
                | Some { Ast.desc = Ast.Template [ Ast.Lit it ]; _ } -> it
                | _ -> gen_type
              in
              let head =
                match Ast.attr b.Ast.bbody "for_each" with
                | Some e -> of_expr ~bound e
                | None -> []
              in
              head
              @ List.concat_map
                  (fun (c : Ast.block) ->
                    if c.Ast.btype = "content" then
                      walk_body (iterator :: bound) c.Ast.bbody
                    else walk_body bound c.Ast.bbody)
                  b.Ast.bbody.Ast.blocks
          | _ -> walk_body bound b.Ast.bbody)
        body.Ast.blocks
  in
  let all = walk_body [] body in
  List.fold_left
    (fun acc t -> if List.exists (equal_target t) acc then acc else acc @ [ t ])
    [] all
