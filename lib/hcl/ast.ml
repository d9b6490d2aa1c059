(** Abstract syntax for the HCL subset.

    The surface grammar follows Terraform's HCL2: a configuration is a
    sequence of blocks; block bodies contain attribute assignments and
    nested blocks; attribute values are full expressions with string
    templates, operators, conditionals, for-expressions and function
    calls. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Gt
  | Le
  | Ge
  | And
  | Or

(** Binding strength, loosest first; all binary operators are
    left-associative.  The parser climbs these levels and the printer
    uses them to decide where parentheses are needed when an AST was
    built programmatically (rather than parsed). *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Neq -> 3
  | Lt | Gt | Le | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

type unop = Neg | Not

type expr = { desc : desc; espan : Loc.span }

and desc =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Template of part list
      (** string template; a single [Lit] part is a plain string *)
  | Var of string  (** root of a reference chain: [var], [aws_vpc], ... *)
  | GetAttr of expr * string  (** [e.attr] *)
  | Index of expr * expr  (** [e[i]] *)
  | Splat of expr * string  (** [e[*].attr] *)
  | ListLit of expr list
  | ObjectLit of (object_key * expr) list
  | Call of string * expr list * bool
      (** function call; the flag marks a trailing [...] expansion *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr  (** [c ? a : b] *)
  | ForList of for_clause  (** [\[for x in coll : body if cond\]] *)
  | ForMap of for_clause * expr
      (** [{for k, v in coll : key => value if cond}]; the extra expr is
          the value, [for_clause.body] is the key *)
  | Paren of expr

and part = Lit of string | Interp of expr

and object_key = Kident of string | Kexpr of expr

and for_clause = {
  key_var : string option;  (** bound to index/key when two vars given *)
  val_var : string;
  coll : expr;
  body : expr;
  cond : expr option;
}

(** A block such as [resource "aws_vpc" "main" { ... }]. *)
type block = {
  btype : string;  (** [resource], [variable], [module], ... *)
  labels : string list;
  bbody : body;
  bspan : Loc.span;
}

and body = { attrs : attribute list; blocks : block list }

and attribute = { aname : string; avalue : expr; aspan : Loc.span }

let mk ?(span = Loc.dummy) desc = { desc; espan = span }

let string_lit ?(span = Loc.dummy) s = mk ~span (Template [ Lit s ])

(** [attr body name] finds the expression assigned to [name], if any. *)
let attr body name =
  List.find_map
    (fun a -> if a.aname = name then Some a.avalue else None)
    body.attrs

let attr_span body name =
  List.find_map
    (fun a -> if a.aname = name then Some a.aspan else None)
    body.attrs

(** Nested blocks of a given type, e.g. all [ingress] blocks. *)
let blocks_of_type body ty = List.filter (fun b -> b.btype = ty) body.blocks

(** [is_literal e] holds when [e] contains no references or calls, i.e.
    it can be evaluated without any scope. *)
let rec is_literal e =
  match e.desc with
  | Null | Bool _ | Int _ | Float _ -> true
  | Template parts ->
      List.for_all (function Lit _ -> true | Interp e -> is_literal e) parts
  | ListLit es -> List.for_all is_literal es
  | ObjectLit kvs ->
      List.for_all
        (fun (k, v) ->
          (match k with Kident _ -> true | Kexpr e -> is_literal e)
          && is_literal v)
        kvs
  | Paren e | Unop (_, e) -> is_literal e
  | Binop (_, a, b) -> is_literal a && is_literal b
  | Cond (c, a, b) -> is_literal c && is_literal a && is_literal b
  | Var _ | GetAttr _ | Index _ | Splat _ | Call _ | ForList _ | ForMap _ ->
      false

(** Fold over every sub-expression of [e], outermost first. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  match e.desc with
  | Null | Bool _ | Int _ | Float _ | Var _ -> acc
  | Template parts ->
      List.fold_left
        (fun acc -> function Lit _ -> acc | Interp e -> fold_expr f acc e)
        acc parts
  | GetAttr (e, _) | Splat (e, _) | Paren e | Unop (_, e) -> fold_expr f acc e
  | Index (a, b) | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | ListLit es -> List.fold_left (fold_expr f) acc es
  | ObjectLit kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let acc =
            match k with Kident _ -> acc | Kexpr e -> fold_expr f acc e
          in
          fold_expr f acc v)
        acc kvs
  | Call (_, args, _) -> List.fold_left (fold_expr f) acc args
  | Cond (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  | ForList fc ->
      let acc = fold_expr f acc fc.coll in
      let acc = fold_expr f acc fc.body in
      (match fc.cond with Some c -> fold_expr f acc c | None -> acc)
  | ForMap (fc, v) ->
      let acc = fold_expr f acc fc.coll in
      let acc = fold_expr f acc fc.body in
      let acc = fold_expr f acc v in
      (match fc.cond with Some c -> fold_expr f acc c | None -> acc)

(** Every expression in a body, attributes first then nested blocks. *)
let rec body_exprs body =
  List.map (fun a -> a.avalue) body.attrs
  @ List.concat_map (fun b -> body_exprs b.bbody) body.blocks
