(** Expression evaluation and configuration expansion.

    Expansion turns a structured {!Config.t} into the flat list of
    resource *instances* that must exist in the cloud — expanding
    [count], [for_each] and [module] blocks, resolving variables,
    locals and data sources, and propagating "(known after apply)"
    unknowns for attributes that only the cloud can decide (§2.1's
    dependency-graph construction step).

    References between resources are resolved against (a) instances
    expanded earlier in this run, then (b) prior deployment state, and
    otherwise become {!Value.Vunknown} carrying the provenance address,
    exactly like Terraform's plan-time unknowns.

    Errors are [references/eval-error] diagnostics on the typed channel
    ({!Cloudless_error.Error}), located at the failing expression; a
    {!Value} type error ([references/type-error]) is located where the
    evaluator applied the conversion that raised it.

    Expansion runs in two steps.  {!compile} does the work that reads
    only the configuration, once: the node order, each block's targets,
    provider and (when no target's shape reads state) dependencies, the
    instance addresses of a block whose [count] reads nothing, and one
    shared map per block of the attribute values that read nothing in
    scope.  {!instantiate} then evaluates, per state, only the rest and
    merges each instance's state row.  Compile never raises: a block it
    cannot specialize, or whose static evaluation fails, is expanded at
    instantiate time by the general code, and an ordering error is
    raised there, so instances, outputs, diagnostics and the order in
    which errors surface are those of one pass.  {!expand} is the two
    in a row; {!Reference.expand} is the one-pass driver, kept as the
    oracle. *)

module Smap = Value.Smap
module Sset = Set.Make (String)

let errf span fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.References
    ~code:"eval-error" ~span fmt

(* A computed map or instance key, converted with [Value.to_string]:
   a value with no string form is an error at [span], the expression
   the key came from, saying what the key was for. *)
let key_string span what v =
  try Value.to_string v
  with Cloudless_error.Error { code = "type-error"; message; _ } ->
    errf span "%s: %s" what message

(** One concrete resource instance produced by expansion. *)
type instance = {
  addr : Addr.t;
  provider : string;
  attrs : Value.t Smap.t;
  explicit_deps : Addr.t list;  (** from [depends_on] *)
  ref_deps : Addr.t list;  (** from expression references *)
  lifecycle : Config.lifecycle;
  ispan : Loc.span;
}

(** External services the evaluator needs. *)
type env = {
  var_values : Value.t Smap.t;  (** caller-supplied variable values *)
  data_resolver :
    rtype:string -> name:string -> args:Value.t Smap.t -> Value.t Smap.t option;
  state_lookup : Addr.t -> Value.t Smap.t option;
      (** prior deployment state, for resolving computed attributes *)
  module_registry : string -> Config.t option;
      (** module source -> configuration *)
}

let default_env =
  {
    var_values = Smap.empty;
    data_resolver = (fun ~rtype:_ ~name:_ ~args:_ -> Some Smap.empty);
    state_lookup = (fun _ -> None);
    module_registry = (fun _ -> None);
  }

type expansion_result = {
  instances : instance list;  (** dependency order *)
  outputs : (string * Value.t) list;
}

(* Expansion of one resource block: shape depends on its meta-args. *)
type node_expansion =
  | Single of instance
  | Counted of instance list
  | For_eached of (string * instance) list

(* Module expansion: outputs per instance key. *)
type module_expansion =
  | Mod_single of Value.t Smap.t
  | Mod_counted of Value.t Smap.t list
  | Mod_for_eached of (string * Value.t Smap.t) list

type scope = {
  env : env;
  module_path : string list;
  vars : Value.t Smap.t;
  locals_tbl : (string, Ast.expr) Hashtbl.t;
      (** the scope's locals, first binding per name *)
  locals_cache : (string, Value.t) Hashtbl.t;
  mutable locals_forcing : string list;  (** cycle detection *)
  resources : (string * string, node_expansion) Hashtbl.t;
  data : (string * string, Value.t Smap.t) Hashtbl.t;
  modules : (string, module_expansion) Hashtbl.t;
  count_index : int option;
  each_binding : (Value.t * Value.t) option;  (** (key, value) *)
  for_bindings : Value.t Smap.t;
  direct_refs : bool;
      (** resolve [type.name.attr] on a single instance by looking the
          attribute up, not through {!instance_value} *)
}

(* Index a locals binding list by name, keeping the first binding for a
   name like [List.assoc_opt] would. *)
let locals_index (locals : (string * Ast.expr) list) =
  let tbl = Hashtbl.create (max 8 (2 * List.length locals)) in
  List.iter
    (fun (n, e) -> if not (Hashtbl.mem tbl n) then Hashtbl.add tbl n e)
    locals;
  tbl

let make_scope ?(env = default_env) ?(module_path = []) ?(locals = [])
    ?locals_tbl ?(vars = Smap.empty) ?(direct_refs = false) () =
  {
    env;
    module_path;
    vars;
    locals_tbl =
      (match locals_tbl with Some tbl -> tbl | None -> locals_index locals);
    locals_cache = Hashtbl.create 8;
    locals_forcing = [];
    resources = Hashtbl.create 16;
    data = Hashtbl.create 4;
    modules = Hashtbl.create 4;
    count_index = None;
    each_binding = None;
    for_bindings = Smap.empty;
    direct_refs;
  }

(* The sentinel attribute that marks a map as a resource object so that
   access to a missing (computed) attribute yields an unknown instead of
   an error. *)
let addr_key = "__addr__"

let instance_value inst =
  Smap.add addr_key (Value.Vstring (Addr.to_string inst.addr)) inst.attrs

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* Functions that behave sensibly even when list/map elements are
   unknown (they do not inspect element contents). *)
let unknown_tolerant_fns =
  [ "length"; "concat"; "tolist"; "keys"; "merge"; "coalesce"; "try"; "can" ]

let rec eval scope (e : Ast.expr) : Value.t =
  match e.Ast.desc with
  | Ast.Null -> Value.Vnull
  | Ast.Bool b -> Value.Vbool b
  | Ast.Int n -> Value.Vint n
  | Ast.Float f -> Value.Vfloat f
  | Ast.Template parts -> eval_template scope e.Ast.espan parts
  | Ast.Var name -> eval_var scope e.Ast.espan name
  | Ast.GetAttr (inner, attr) -> eval_getattr scope e.Ast.espan inner attr
  | Ast.Index (inner, idx) -> eval_index scope e.Ast.espan inner idx
  | Ast.Splat (inner, attr) -> eval_splat scope e.Ast.espan inner attr
  | Ast.ListLit es -> Value.Vlist (List.map (eval scope) es)
  | Ast.ObjectLit kvs ->
      Value.Vmap
        (List.fold_left
           (fun acc (k, v) ->
             let key =
               match k with
               | Ast.Kident s -> s
               | Ast.Kexpr ke -> value_to_key scope ke
             in
             Smap.add key (eval scope v) acc)
           Smap.empty kvs)
  | Ast.Call (name, args, expand) -> eval_call scope e.Ast.espan name args expand
  | Ast.Unop (op, inner) -> eval_unop scope e.Ast.espan op inner
  | Ast.Binop (op, a, b) -> eval_binop scope e.Ast.espan op a b
  | Ast.Cond (c, a, b) -> (
      match eval scope c with
      | Value.Vunknown p -> Value.Vunknown (p ^ "?")
      | cv -> if cond_truthy e.Ast.espan cv then eval scope a else eval scope b)
  | Ast.ForList fc -> eval_for_list scope e.Ast.espan fc
  | Ast.ForMap (fc, v) -> eval_for_map scope e.Ast.espan fc v
  | Ast.Paren inner -> eval scope inner

and cond_truthy span v =
  try Value.truthy v
  with Cloudless_error.Error { code = "type-error"; message; _ } ->
    errf span "condition: %s" message

and value_to_key scope ke =
  match eval scope ke with
  | Value.Vstring s -> s
  | v -> key_string ke.Ast.espan "object key" v

and eval_template scope span parts =
  match parts with
  | [ Ast.Lit s ] -> Value.Vstring s
  | [] -> Value.Vstring ""
  | [ Ast.Interp e ] ->
      (* A template that is exactly one interpolation preserves the
         value's type (Terraform 0.12+ behaviour). *)
      eval scope e
  | parts ->
      let buf = Buffer.create 32 in
      let unknown = ref None in
      List.iter
        (function
          | Ast.Lit s -> Buffer.add_string buf s
          | Ast.Interp e -> (
              match eval scope e with
              | Value.Vunknown p -> if !unknown = None then unknown := Some p
              | v -> (
                  try Buffer.add_string buf (Value.to_string v)
                  with
                  | Cloudless_error.Error { code = "type-error"; message; _ } ->
                    errf span "in template: %s" message)))
        parts;
      (match !unknown with
      | Some p -> Value.Vunknown ("template:" ^ p)
      | None -> Value.Vstring (Buffer.contents buf))

and eval_var scope span name =
  match Smap.find_opt name scope.for_bindings with
  | Some v -> v
  | None -> (
      match name with
      | "var" -> Value.Vmap scope.vars
      | "path" ->
          Value.of_assoc
            [
              ("module", Value.Vstring (String.concat "/" scope.module_path));
              ("root", Value.Vstring "");
            ]
      | "count" | "each" | "data" | "module" | "local" ->
          errf span "%S cannot be used as a bare value" name
      | _ -> errf span "reference to undeclared identifier %S" name)

and force_local scope span name =
  match Hashtbl.find_opt scope.locals_cache name with
  | Some v -> v
  | None ->
      if List.mem name scope.locals_forcing then
        errf span "dependency cycle through local.%s" name;
      (match Hashtbl.find_opt scope.locals_tbl name with
      | None -> errf span "reference to undeclared local.%s" name
      | Some e ->
          scope.locals_forcing <- name :: scope.locals_forcing;
          let v =
            Fun.protect
              ~finally:(fun () ->
                scope.locals_forcing <- List.tl scope.locals_forcing)
              (fun () -> eval scope e)
          in
          Hashtbl.replace scope.locals_cache name v;
          v)

and eval_getattr scope span inner attr =
  match inner.Ast.desc with
  | Ast.Var root when not (Smap.mem root scope.for_bindings) -> (
      match root with
      | "var" -> (
          match Smap.find_opt attr scope.vars with
          | Some v -> v
          | None -> errf span "reference to undeclared variable var.%s" attr)
      | "local" -> force_local scope span attr
      | "count" -> (
          match (attr, scope.count_index) with
          | "index", Some i -> Value.Vint i
          | "index", None ->
              errf span "count.index used outside a counted resource"
          | _, _ -> errf span "unknown attribute count.%s" attr)
      | "each" -> (
          match scope.each_binding with
          | None -> errf span "each.%s used outside a for_each resource" attr
          | Some (k, v) -> (
              match attr with
              | "key" -> k
              | "value" -> v
              | _ -> errf span "unknown attribute each.%s" attr))
      | "path" -> (
          match attr with
          | "module" -> Value.Vstring (String.concat "/" scope.module_path)
          | "root" -> Value.Vstring ""
          | _ -> errf span "unknown attribute path.%s" attr)
      | "module" -> eval_module_ref scope span attr
      | "data" ->
          (* needs a second GetAttr level: handled when the chain is
             data.<type>.<name>; a bare data.<type> is meaningless *)
          errf span "incomplete data source reference data.%s" attr
      | _ -> eval_resource_ref scope span root attr)
  | Ast.GetAttr ({ Ast.desc = Ast.Var "data"; _ }, dtype) ->
      eval_data_ref scope span dtype attr
  | Ast.GetAttr ({ Ast.desc = Ast.Var rtype; _ }, rname)
    when scope.direct_refs && attr <> addr_key
         && (not (List.mem rtype Refs.reserved))
         && not (Smap.mem rtype scope.for_bindings) -> (
      (* [type.name.attr] on a single instance: the attribute, or the
         unknown that {!generic_getattr} would give *)
      match Hashtbl.find_opt scope.resources (rtype, rname) with
      | Some (Single inst) -> (
          match Smap.find_opt attr inst.attrs with
          | Some v -> v
          | None -> Value.unknown (Addr.to_string inst.addr ^ "." ^ attr))
      | _ -> generic_getattr scope span (eval scope inner) attr)
  | _ -> generic_getattr scope span (eval scope inner) attr

and generic_getattr _scope span v attr =
  match v with
  | Value.Vmap m -> (
      match Smap.find_opt attr m with
      | Some v -> v
      | None -> (
          match Smap.find_opt addr_key m with
          | Some (Value.Vstring owner) ->
              (* computed attribute of a resource object *)
              Value.unknown (owner ^ "." ^ attr)
          | _ -> errf span "object has no attribute %S" attr))
  | Value.Vunknown p -> Value.unknown (p ^ "." ^ attr)
  | Value.Vlist _ ->
      errf span "cannot access attribute %S on a list (index it first)" attr
  | v -> errf span "cannot access attribute %S on %s" attr (Value.type_name v)

and eval_resource_ref scope span rtype rname =
  match Hashtbl.find_opt scope.resources (rtype, rname) with
  | Some (Single inst) -> Value.Vmap (instance_value inst)
  | Some (Counted insts) ->
      Value.Vlist (List.map (fun i -> Value.Vmap (instance_value i)) insts)
  | Some (For_eached kvs) ->
      Value.Vmap
        (List.fold_left
           (fun acc (k, i) -> Smap.add k (Value.Vmap (instance_value i)) acc)
           Smap.empty kvs)
  | None ->
      errf span "reference to undeclared resource %s.%s (or dependency cycle)"
        rtype rname

and eval_data_ref scope span dtype dname =
  match Hashtbl.find_opt scope.data (dtype, dname) with
  | Some attrs ->
      let addr =
        Addr.make ~module_path:scope.module_path ~mode:Addr.Data ~rtype:dtype
          ~rname:dname ()
      in
      Value.Vmap
        (Smap.add addr_key (Value.Vstring (Addr.to_string addr)) attrs)
  | None ->
      errf span "reference to undeclared data source data.%s.%s" dtype dname

and eval_module_ref scope span mname =
  match Hashtbl.find_opt scope.modules mname with
  | Some (Mod_single outs) -> Value.Vmap outs
  | Some (Mod_counted outs) ->
      Value.Vlist (List.map (fun o -> Value.Vmap o) outs)
  | Some (Mod_for_eached kvs) ->
      Value.Vmap
        (List.fold_left
           (fun acc (k, o) -> Smap.add k (Value.Vmap o) acc)
           Smap.empty kvs)
  | None -> errf span "reference to undeclared module.%s" mname

and eval_index scope span inner idx =
  let v = eval scope inner in
  let i = eval scope idx in
  match (v, i) with
  | Value.Vunknown p, _ -> Value.unknown (p ^ "[...]")
  | _, Value.Vunknown p -> Value.unknown ("[" ^ p ^ "]")
  | Value.Vlist vs, _ -> (
      let n =
        try Value.to_int i
        with Cloudless_error.Error { code = "type-error"; message; _ } ->
          errf span "list index: %s" message
      in
      match List.nth_opt vs n with
      | Some v -> v
      | None ->
          errf span "list index %d out of bounds (length %d)" n
            (List.length vs))
  | Value.Vmap m, _ -> (
      let k = key_string span "map key" i in
      match Smap.find_opt k m with
      | Some v -> v
      | None -> (
          match Smap.find_opt addr_key m with
          | Some (Value.Vstring owner) ->
              Value.unknown (Printf.sprintf "%s[%s]" owner k)
          | _ -> errf span "map has no key %S" k))
  | v, _ -> errf span "cannot index a %s" (Value.type_name v)

and eval_splat scope span inner attr =
  match eval scope inner with
  | Value.Vunknown p -> Value.unknown (p ^ "[*]." ^ attr)
  | Value.Vlist vs ->
      Value.Vlist (List.map (fun v -> generic_getattr scope span v attr) vs)
  | Value.Vnull -> Value.Vlist []
  | v -> Value.Vlist [ generic_getattr scope span v attr ]

and eval_call scope span name args expand =
  (* try/can are lazy over evaluation errors (Terraform semantics):
     arguments are attempted in order and failures, eval and type
     errors alike, are swallowed *)
  match name with
  | "try" ->
      let rec attempt = function
        | [] -> errf span "try: no argument evaluated successfully"
        | [ last ] -> eval scope last
        | e :: rest -> (
            match eval scope e with
            | Value.Vunknown _ -> attempt rest
            | v -> v
            | exception Cloudless_error.Error { stage = References; _ } ->
                attempt rest)
      in
      attempt args
  | "can" -> (
      match args with
      | [ e ] -> (
          match eval scope e with
          | Value.Vunknown _ as v -> v
          | _ -> Value.Vbool true
          | exception Cloudless_error.Error { stage = References; _ } ->
              Value.Vbool false)
      | _ -> errf span "can expects exactly 1 argument")
  | _ -> eval_call_strict scope span name args expand

and eval_call_strict scope span name args expand =
  let args = List.map (eval scope) args in
  let args =
    if not expand then args
    else
      match List.rev args with
      | last :: rev_rest -> List.rev rev_rest @ Value.to_list last
      | [] -> args
  in
  (
      let needs_shortcircuit =
        (not (List.mem name unknown_tolerant_fns))
        && List.exists Value.has_unknown args
      in
      if needs_shortcircuit then Value.unknown ("fn:" ^ name)
      else
        try Funcs.call name args with
        | Funcs.Call_error msg -> errf span "%s" msg
        | Cloudless_error.Error { code = "type-error"; message; _ } ->
            errf span "in %s(): %s" name message)

and eval_unop scope span op inner =
  let v = eval scope inner in
  match (op, v) with
  | _, Value.Vunknown p -> Value.unknown (p ^ ":unop")
  | Ast.Neg, Value.Vint n -> Value.Vint (-n)
  | Ast.Neg, Value.Vfloat f -> Value.Vfloat (-.f)
  | Ast.Neg, v -> errf span "cannot negate a %s" (Value.type_name v)
  | Ast.Not, Value.Vbool b -> Value.Vbool (not b)
  | Ast.Not, v -> errf span "cannot apply '!' to a %s" (Value.type_name v)

and eval_binop scope span op a b =
  match op with
  | Ast.And -> (
      match eval scope a with
      | Value.Vbool false -> Value.Vbool false
      | Value.Vbool true -> eval_bool scope span b
      | Value.Vunknown p -> (
          (* false && unknown is false; need the other side *)
          match eval scope b with
          | Value.Vbool false -> Value.Vbool false
          | _ -> Value.unknown (p ^ "&&"))
      | v -> errf span "'&&' expects bools, got %s" (Value.type_name v))
  | Ast.Or -> (
      match eval scope a with
      | Value.Vbool true -> Value.Vbool true
      | Value.Vbool false -> eval_bool scope span b
      | Value.Vunknown p -> (
          match eval scope b with
          | Value.Vbool true -> Value.Vbool true
          | _ -> Value.unknown (p ^ "||"))
      | v -> errf span "'||' expects bools, got %s" (Value.type_name v))
  | _ -> (
      let va = eval scope a and vb = eval scope b in
      match (va, vb) with
      | Value.Vunknown p, _ | _, Value.Vunknown p ->
          Value.unknown (p ^ ":binop")
      | _ -> apply_binop span op va vb)

and eval_bool scope span e =
  match eval scope e with
  | Value.Vbool _ as v -> v
  | Value.Vunknown _ as v -> v
  | v -> errf span "expected bool, got %s" (Value.type_name v)

and apply_binop span op va vb =
  let arith fi ff =
    match (va, vb) with
    | Value.Vint x, Value.Vint y -> Value.Vint (fi x y)
    | (Value.Vint _ | Value.Vfloat _), (Value.Vint _ | Value.Vfloat _) ->
        Value.Vfloat (ff (Value.to_float va) (Value.to_float vb))
    | _ ->
        errf span "arithmetic on %s and %s" (Value.type_name va)
          (Value.type_name vb)
  in
  let cmp f =
    match (va, vb) with
    | (Value.Vint _ | Value.Vfloat _), (Value.Vint _ | Value.Vfloat _) ->
        Value.Vbool (f (Float.compare (Value.to_float va) (Value.to_float vb)) 0)
    | Value.Vstring x, Value.Vstring y -> Value.Vbool (f (String.compare x y) 0)
    | _ ->
        errf span "cannot compare %s with %s" (Value.type_name va)
          (Value.type_name vb)
  in
  match op with
  | Ast.Add -> (
      match (va, vb) with
      | Value.Vstring x, Value.Vstring y -> Value.Vstring (x ^ y)
      | _ -> arith ( + ) ( +. ))
  | Ast.Sub -> arith ( - ) ( -. )
  | Ast.Mul -> arith ( * ) ( *. )
  | Ast.Div -> (
      match (va, vb) with
      | _, Value.Vint 0 -> errf span "division by zero"
      | Value.Vint x, Value.Vint y when x mod y = 0 -> Value.Vint (x / y)
      | _ -> Value.Vfloat (Value.to_float va /. Value.to_float vb))
  | Ast.Mod -> (
      match (va, vb) with
      | _, Value.Vint 0 -> errf span "modulo by zero"
      | Value.Vint x, Value.Vint y -> Value.Vint (((x mod y) + y) mod y)
      | _ -> errf span "'%%' expects integers")
  | Ast.Eq -> Value.Vbool (Value.equal va vb)
  | Ast.Neq -> Value.Vbool (not (Value.equal va vb))
  | Ast.Lt -> cmp ( < )
  | Ast.Gt -> cmp ( > )
  | Ast.Le -> cmp ( <= )
  | Ast.Ge -> cmp ( >= )
  | Ast.And | Ast.Or -> assert false

and for_collection scope span fc =
  match eval scope fc.Ast.coll with
  | Value.Vlist vs -> List.mapi (fun i v -> (Value.Vint i, v)) vs
  | Value.Vmap m ->
      List.map (fun (k, v) -> (Value.Vstring k, v)) (Smap.bindings m)
  | Value.Vunknown _ -> errf span "for-expression over an unknown collection"
  | v -> errf span "for-expression expects list or map, got %s" (Value.type_name v)

and bind_for scope fc k v =
  let bindings = Smap.add fc.Ast.val_var v scope.for_bindings in
  let bindings =
    match fc.Ast.key_var with
    | Some kv -> Smap.add kv k bindings
    | None -> bindings
  in
  { scope with for_bindings = bindings }

and eval_for_list scope span fc =
  let items = for_collection scope span fc in
  let out =
    List.filter_map
      (fun (k, v) ->
        let scope' = bind_for scope fc k v in
        let keep =
          match fc.Ast.cond with
          | None -> true
          | Some c -> cond_truthy span (eval scope' c)
        in
        if keep then Some (eval scope' fc.Ast.body) else None)
      items
  in
  Value.Vlist out

and eval_for_map scope span fc velt =
  let items = for_collection scope span fc in
  let out =
    List.fold_left
      (fun acc (k, v) ->
        let scope' = bind_for scope fc k v in
        let keep =
          match fc.Ast.cond with
          | None -> true
          | Some c -> cond_truthy span (eval scope' c)
        in
        if keep then
          let key =
            key_string fc.Ast.body.Ast.espan "for key"
              (eval scope' fc.Ast.body)
          in
          Smap.add key (eval scope' velt) acc
        else acc)
      Smap.empty items
  in
  Value.Vmap out

(* ------------------------------------------------------------------ *)
(* Body evaluation: attributes + nested blocks -> attribute map        *)
(* ------------------------------------------------------------------ *)

(* Nested blocks of the same type accumulate into a list of objects
   (Terraform's block-list representation).  [dynamic "ty" { for_each =
   coll  iterator = it?  content { ... } }] expands to one "ty" block
   per collection element, with the iterator (default: the block type
   name) bound to {key, value} inside the content. *)
let rec eval_body scope (body : Ast.body) : Value.t Smap.t =
  let attrs =
    List.fold_left
      (fun acc (a : Ast.attribute) ->
        Smap.add a.Ast.aname (eval scope a.Ast.avalue) acc)
      Smap.empty body.Ast.attrs
  in
  let add_block acc btype v =
    let existing =
      match Smap.find_opt btype acc with
      | Some (Value.Vlist vs) -> vs
      | Some v -> [ v ]
      | None -> []
    in
    Smap.add btype (Value.Vlist (existing @ [ v ])) acc
  in
  List.fold_left
    (fun acc (b : Ast.block) ->
      match (b.Ast.btype, b.Ast.labels) with
      | "dynamic", [ gen_type ] ->
          let coll =
            match Ast.attr b.Ast.bbody "for_each" with
            | Some e -> e
            | None -> errf b.Ast.bspan "dynamic block needs for_each"
          in
          let iterator =
            match Ast.attr b.Ast.bbody "iterator" with
            | Some { Ast.desc = Ast.Var it; _ } -> it
            | Some { Ast.desc = Ast.Template [ Ast.Lit it ]; _ } -> it
            | Some _ -> errf b.Ast.bspan "iterator must be a name"
            | None -> gen_type
          in
          let content =
            match Ast.blocks_of_type b.Ast.bbody "content" with
            | [ c ] -> c.Ast.bbody
            | _ -> errf b.Ast.bspan "dynamic block needs exactly one content block"
          in
          let items =
            match eval scope coll with
            | Value.Vlist vs -> List.mapi (fun i v -> (Value.Vint i, v)) vs
            | Value.Vmap m ->
                List.map (fun (k, v) -> (Value.Vstring k, v)) (Smap.bindings m)
            | v ->
                errf b.Ast.bspan "dynamic for_each expects list or map, got %s"
                  (Value.type_name v)
          in
          List.fold_left
            (fun acc (k, v) ->
              let binding =
                Value.of_assoc [ ("key", k); ("value", v) ]
              in
              let scope' =
                { scope with for_bindings = Smap.add iterator binding scope.for_bindings }
              in
              add_block acc gen_type (Value.Vmap (eval_body scope' content)))
            acc items
      | _ -> add_block acc b.Ast.btype (Value.Vmap (eval_body scope b.Ast.bbody)))
    attrs body.Ast.blocks

(* ------------------------------------------------------------------ *)
(* Node ordering                                                       *)
(* ------------------------------------------------------------------ *)

type node =
  | Ndata of Config.data_source
  | Nres of Config.resource
  | Nmod of Config.module_call

let node_key = function
  | Ndata d -> "data." ^ d.Config.dtype ^ "." ^ d.Config.dname
  | Nres r -> r.Config.rtype ^ "." ^ r.Config.rname
  | Nmod m -> "module." ^ m.Config.mname

let node_span = function
  | Ndata d -> d.Config.dspan
  | Nres r -> r.Config.rspan
  | Nmod m -> m.Config.mspan

(* The blocks of a configuration in declaration order, data sources
   first. *)
let config_nodes (cfg : Config.t) =
  List.map (fun d -> Ndata d) cfg.Config.data_sources
  @ List.map (fun r -> Nres r) cfg.Config.resources
  @ List.map (fun m -> Nmod m) cfg.Config.modules

(* The target a [depends_on] entry names. *)
let depends_on_target (ty, n) =
  if ty = "module" then Refs.Tmodule (n, None)
  else if String.length ty > 5 && String.sub ty 0 5 = "data." then
    Refs.Tdata (String.sub ty 5 (String.length ty - 5), n)
  else Refs.Tresource (ty, n)

(* Static targets of a node, with local references expanded
   transitively (through [locals], the configuration's locals index)
   so that ordering respects locals that mention resources. *)
let node_targets ~locals node : Refs.target list =
  let direct =
    match node with
    | Ndata d -> Refs.of_body d.Config.dbody
    | Nres r ->
        Refs.of_body r.Config.rbody
        @ (match r.Config.rcount with Some e -> Refs.of_expr e | None -> [])
        @ (match r.Config.rfor_each with Some e -> Refs.of_expr e | None -> [])
        @ List.map depends_on_target r.Config.rdepends_on
    | Nmod m ->
        List.concat_map (fun (_, e) -> Refs.of_expr e) m.Config.margs
        @ (match m.Config.mcount with Some e -> Refs.of_expr e | None -> [])
        @
        (match m.Config.mfor_each with Some e -> Refs.of_expr e | None -> [])
  in
  (* Expand Tlocal transitively. *)
  let rec expand_locals seen targets =
    List.concat_map
      (fun t ->
        match t with
        | Refs.Tlocal name when not (Sset.mem name seen) -> (
            match Hashtbl.find_opt locals name with
            | Some e -> expand_locals (Sset.add name seen) (Refs.of_expr e)
            | None -> [ t ])
        | t -> [ t ])
      targets
  in
  expand_locals Sset.empty direct

let target_node_key = function
  | Refs.Tresource (t, n) -> Some (t ^ "." ^ n)
  | Refs.Tdata (t, n) -> Some ("data." ^ t ^ "." ^ n)
  | Refs.Tmodule (m, _) -> Some ("module." ^ m)
  | Refs.Tvar _ | Refs.Tlocal _ | Refs.Tcount | Refs.Teach | Refs.Tpath -> None

(* Stable topological sort of a configuration's nodes, each paired with
   its targets; raises on cycles. *)
let order_nodes ~locals (cfg : Config.t) : (node * Refs.target list) list =
  let nodes =
    List.map (fun n -> (n, node_targets ~locals n)) (config_nodes cfg)
  in
  let by_key = Hashtbl.create 16 in
  List.iter (fun ((n, _) as nt) -> Hashtbl.replace by_key (node_key n) nt) nodes;
  let deps (_, targets) =
    targets
    |> List.filter_map target_node_key
    |> List.filter_map (Hashtbl.find_opt by_key)
  in
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit ((n, _) as nt) =
    let key = node_key n in
    match Hashtbl.find_opt visited key with
    | Some `Done -> ()
    | Some `In_progress ->
        errf (node_span n) "dependency cycle involving %s" key
    | None ->
        Hashtbl.replace visited key `In_progress;
        List.iter visit (deps nt);
        Hashtbl.replace visited key `Done;
        out := nt :: !out
  in
  List.iter visit nodes;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)
(* ------------------------------------------------------------------ *)

let provider_of (r : Config.resource) =
  match r.Config.rprovider with
  | Some p -> p
  | None -> (
      let rtype = r.Config.rtype in
      match String.index_opt rtype '_' with
      | Some i -> String.sub rtype 0 i
      | None -> rtype)

(* A resource block's reference and [depends_on] dependencies: the base
   addresses of the instances each target denotes, with [instances_of]
   giving a resource's. *)
let resource_deps ~module_path (cfg : Config.t) instances_of ~targets
    (r : Config.resource) =
  let addrs = function
    | Refs.Tresource (t, n) -> instances_of (t, n)
    | Refs.Tdata (t, n) ->
        if
          List.exists
            (fun d -> d.Config.dtype = t && d.Config.dname = n)
            cfg.Config.data_sources
        then [ Addr.make ~module_path ~mode:Addr.Data ~rtype:t ~rname:n () ]
        else []
    | Refs.Tmodule _ | Refs.Tvar _ | Refs.Tlocal _ | Refs.Tcount | Refs.Teach
    | Refs.Tpath ->
        []
  in
  ( List.concat_map addrs targets,
    List.concat_map (fun d -> addrs (depends_on_target d)) r.Config.rdepends_on
  )

(* The instances a scope has expanded for a resource; none if it is
   undeclared. *)
let scope_instances scope key =
  match Hashtbl.find_opt scope.resources key with
  | Some (Single i) -> [ i.addr ]
  | Some (Counted is) -> List.map (fun i -> i.addr) is
  | Some (For_eached kvs) -> List.map (fun (_, i) -> i.addr) kvs
  | None -> []

(* Fill in variable defaults; unknown variables are an error, missing
   required variables too. *)
let bind_vars env ~module_path ~vars (cfg : Config.t) =
  if cfg.Config.variables = [] then Smap.empty
  else
    let var_scope = make_scope ~env ~module_path () in
    List.fold_left
      (fun acc (v : Config.variable) ->
        match Smap.find_opt v.Config.vname vars with
        | Some value -> Smap.add v.Config.vname value acc
        | None -> (
            match v.Config.vdefault with
            | Some d -> Smap.add v.Config.vname (eval var_scope d) acc
            | None ->
                errf v.Config.vspan "no value for required variable %S"
                  v.Config.vname))
      Smap.empty cfg.Config.variables

(* ------------------------------------------------------------------ *)
(* Blocks as the driver expands them                                   *)
(* ------------------------------------------------------------------ *)

(* One attribute of a compiled block: its value when it reads nothing in
   scope, else its expression, evaluated per state. *)
type attr_value = Static of Value.t | Dynamic of Ast.expr

(* A resource block whose instance addresses compile fixes: no
   [for_each], no nested block, distinct attribute names, and a
   [count], if any, that reads nothing. *)
type fixed = {
  fres : Config.resource;
  fprovider : string;
  ftargets : Refs.target list;
  fcount : int option;  (** [None]: a single instance *)
  faddrs : Addr.t list;  (** instance addresses, in key order *)
  fdeps : (Addr.t list * Addr.t list) option;
      (** reference and [depends_on] dependencies, unless some target's
          shape reads state *)
  fstatic : Value.t Smap.t;  (** the [Static] attributes, shared *)
  fattrs : (string * attr_value) list;  (** every attribute, in order *)
}

(* A block, with its targets, expanded in full per state; or a resource
   block that compile fixed. *)
type compiled_node = General of (node * Refs.target list) | Fixed of fixed

(* Values no reader can tell apart: the same constructors and the same
   scalars, floats bit for bit. *)
let rec identical a b =
  a == b
  ||
  match (a, b) with
  | Value.Vstring x, Value.Vstring y | Value.Vunknown x, Value.Vunknown y ->
      String.equal x y
  | Value.Vint x, Value.Vint y -> Int.equal x y
  | Value.Vfloat x, Value.Vfloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Vbool x, Value.Vbool y -> Bool.equal x y
  | Value.Vnull, Value.Vnull -> true
  | Value.Vlist xs, Value.Vlist ys -> List.equal identical xs ys
  | Value.Vmap xm, Value.Vmap ym -> Smap.equal identical xm ym
  | _ -> false

(* A state row with a configured attribute merged in: the configured
   value wins, and the row keeps its own (computed) attributes.  The
   row is copied only where the value differs from the row's. *)
let merge_attr row name v =
  match Smap.find_opt name row with
  | Some sv when identical sv v -> row
  | _ -> Smap.add name v row

(* Expand a fixed block against [scope]'s state: compiled addresses and
   dependencies, and per instance only the [Dynamic] attributes, added
   to the shared static map or merged into the instance's state row. *)
let instantiate_fixed scope (cfg : Config.t) f =
  let r = f.fres in
  let ref_deps, explicit_deps =
    match f.fdeps with
    | Some deps -> deps
    | None ->
        resource_deps ~module_path:scope.module_path cfg (scope_instances scope)
          ~targets:f.ftargets r
  in
  let build addr count_index =
    let scope =
      match count_index with
      | None -> scope
      | Some _ -> { scope with count_index }
    in
    let attrs =
      match scope.env.state_lookup addr with
      | None ->
          List.fold_left
            (fun acc (name, a) ->
              match a with
              | Static _ -> acc
              | Dynamic e -> Smap.add name (eval scope e) acc)
            f.fstatic f.fattrs
      | Some row ->
          List.fold_left
            (fun acc (name, a) ->
              merge_attr acc name
                (match a with Static v -> v | Dynamic e -> eval scope e))
            row f.fattrs
    in
    {
      addr;
      provider = f.fprovider;
      attrs;
      explicit_deps;
      ref_deps;
      lifecycle = r.Config.rlifecycle;
      ispan = r.Config.rspan;
    }
  in
  match f.fcount with
  | None ->
      let inst = build (List.hd f.faddrs) None in
      (Single inst, [ inst ])
  | Some _ ->
      let insts = List.mapi (fun i addr -> build addr (Some i)) f.faddrs in
      (Counted insts, insts)

(* Every block of [cfg], in dependency order, to be expanded in full. *)
let general (cfg : Config.t) scope =
  List.map (fun nt -> General nt) (order_nodes ~locals:scope.locals_tbl cfg)

(* Record a resource block's expansion in its scope, and its instances,
   newest first, in [acc]. *)
let record scope acc (r : Config.resource) (expansion, instances) =
  Hashtbl.replace scope.resources (r.Config.rtype, r.Config.rname) expansion;
  acc := List.rev_append instances !acc

let eval_outputs scope (cfg : Config.t) =
  List.map
    (fun (o : Config.output) -> (o.Config.oname, eval scope o.Config.ovalue))
    cfg.Config.outputs

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* Bind [cfg]'s variables, then expand the blocks [nodes] gives for the
   new scope, in order, and evaluate the outputs. *)
let rec drive ~direct_refs ?locals_tbl (env : env) ~module_path ~vars
    (cfg : Config.t) nodes : expansion_result =
  let vars = bind_vars env ~module_path ~vars cfg in
  let scope =
    make_scope ~env ~module_path ~locals:cfg.Config.locals ?locals_tbl ~vars
      ~direct_refs ()
  in
  let acc = ref [] in
  List.iter
    (function
      | General (Ndata d, _) -> expand_data scope d
      | General (Nres r, targets) ->
          record scope acc r (expand_resource scope cfg ~targets r)
      | General (Nmod m, _) ->
          let expansion, instances = expand_module scope m in
          Hashtbl.replace scope.modules m.Config.mname expansion;
          acc := List.rev_append instances !acc
      | Fixed f -> record scope acc f.fres (instantiate_fixed scope cfg f))
    (nodes scope);
  { instances = List.rev !acc; outputs = eval_outputs scope cfg }

and expand_data scope (d : Config.data_source) =
  let args = eval_body scope d.Config.dbody in
  match
    scope.env.data_resolver ~rtype:d.Config.dtype ~name:d.Config.dname ~args
  with
  | Some attrs ->
      (* data attributes: resolver results override the arguments *)
      let merged = Smap.union (fun _ _ r -> Some r) args attrs in
      Hashtbl.replace scope.data (d.Config.dtype, d.Config.dname) merged
  | None ->
      errf d.Config.dspan "data source type %S is not available"
        d.Config.dtype
  | exception Cloudless_error.Error { code = "type-error"; message; _ } ->
      errf d.Config.dspan "data.%s.%s: %s" d.Config.dtype d.Config.dname
        message

and expand_resource scope cfg ~targets (r : Config.resource) :
    node_expansion * instance list =
  let provider = provider_of r in
  let ref_deps, explicit_deps =
    resource_deps ~module_path:scope.module_path cfg (scope_instances scope)
      ~targets r
  in
  let build key count_index each_binding =
    let addr =
      Addr.make ~module_path:scope.module_path ~rtype:r.Config.rtype
        ~rname:r.Config.rname ~key ()
    in
    let inst_scope = { scope with count_index; each_binding } in
    let attrs = eval_body inst_scope r.Config.rbody in
    (* Merge prior state: computed attributes (e.g. [id]) become known. *)
    let attrs =
      match scope.env.state_lookup addr with
      | Some sattrs -> Smap.union (fun _ conf _ -> Some conf) attrs sattrs
      | None -> attrs
    in
    {
      addr;
      provider;
      attrs;
      explicit_deps;
      ref_deps;
      lifecycle = r.Config.rlifecycle;
      ispan = r.Config.rspan;
    }
  in
  match (r.Config.rcount, r.Config.rfor_each) with
  | Some _, Some _ ->
      errf r.Config.rspan "resource cannot have both count and for_each"
  | Some ce, None -> (
      match eval scope ce with
      | Value.Vint n when n >= 0 ->
          let insts =
            List.init n (fun i -> build (Addr.Kint i) (Some i) None)
          in
          (Counted insts, insts)
      | Value.Vint n -> errf r.Config.rspan "negative count %d" n
      | Value.Vunknown p ->
          errf r.Config.rspan "count depends on unknown value (%s)" p
      | v ->
          errf r.Config.rspan "count must be an integer, got %s"
            (Value.type_name v))
  | None, Some fe -> (
      match eval scope fe with
      | Value.Vmap m ->
          let kvs =
            List.map
              (fun (k, v) ->
                (k, build (Addr.Kstr k) None (Some (Value.Vstring k, v))))
              (Smap.bindings m)
          in
          (For_eached kvs, List.map snd kvs)
      | Value.Vlist vs ->
          let kvs =
            List.map
              (fun v ->
                let k = key_string fe.Ast.espan "for_each element" v in
                (k, build (Addr.Kstr k) None (Some (Value.Vstring k, v))))
              vs
          in
          (For_eached kvs, List.map snd kvs)
      | Value.Vunknown p ->
          errf r.Config.rspan "for_each depends on unknown value (%s)" p
      | v ->
          errf r.Config.rspan "for_each must be a map or set, got %s"
            (Value.type_name v))
  | None, None ->
      let inst = build Addr.Knone None None in
      (Single inst, [ inst ])

and expand_module scope (m : Config.module_call) :
    module_expansion * instance list =
  let child_cfg =
    match scope.env.module_registry m.Config.msource with
    | Some cfg -> cfg
    | None ->
        errf m.Config.mspan "module source %S not found in registry"
          m.Config.msource
  in
  let expand_one path_elem count_index each_binding =
    let inst_scope = { scope with count_index; each_binding } in
    let vars =
      List.fold_left
        (fun acc (name, e) -> Smap.add name (eval inst_scope e) acc)
        Smap.empty m.Config.margs
    in
    let result =
      drive ~direct_refs:scope.direct_refs scope.env
        ~module_path:(scope.module_path @ [ path_elem ])
        ~vars child_cfg (general child_cfg)
    in
    let outputs =
      List.fold_left
        (fun acc (n, v) -> Smap.add n v acc)
        Smap.empty result.outputs
    in
    (outputs, result.instances)
  in
  match (m.Config.mcount, m.Config.mfor_each) with
  | Some _, Some _ ->
      errf m.Config.mspan "module cannot have both count and for_each"
  | Some ce, None -> (
      match eval scope ce with
      | Value.Vint n when n >= 0 ->
          let results =
            List.init n (fun i ->
                expand_one
                  (Printf.sprintf "%s[%d]" m.Config.mname i)
                  (Some i) None)
          in
          ( Mod_counted (List.map fst results),
            List.concat_map snd results )
      | v ->
          errf m.Config.mspan "module count must be an integer, got %s"
            (Value.type_name v))
  | None, Some fe -> (
      match eval scope fe with
      | Value.Vmap map ->
          let results =
            List.map
              (fun (k, v) ->
                ( k,
                  expand_one
                    (Printf.sprintf "%s[%S]" m.Config.mname k)
                    None
                    (Some (Value.Vstring k, v)) ))
              (Smap.bindings map)
          in
          ( Mod_for_eached (List.map (fun (k, (o, _)) -> (k, o)) results),
            List.concat_map (fun (_, (_, is)) -> is) results )
      | Value.Vlist vs ->
          let results =
            List.map
              (fun v ->
                let k = key_string fe.Ast.espan "for_each element" v in
                ( k,
                  expand_one
                    (Printf.sprintf "%s[%S]" m.Config.mname k)
                    None
                    (Some (Value.Vstring k, v)) ))
              vs
          in
          ( Mod_for_eached (List.map (fun (k, (o, _)) -> (k, o)) results),
            List.concat_map (fun (_, (_, is)) -> is) results )
      | v ->
          errf m.Config.mspan "module for_each must be a map or set, got %s"
            (Value.type_name v))
  | None, None ->
      let outputs, instances = expand_one m.Config.mname None None in
      (Mod_single outputs, instances)

(* ------------------------------------------------------------------ *)
(* Compile once, instantiate per state                                 *)
(* ------------------------------------------------------------------ *)

(* Whether [e] reads nothing in scope: every identifier it names is
   bound by a for-expression inside it. *)
let closed (e : Ast.expr) =
  let rec go bound (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Null | Ast.Bool _ | Ast.Int _ | Ast.Float _ -> true
    | Ast.Template parts ->
        List.for_all
          (function Ast.Lit _ -> true | Ast.Interp e -> go bound e)
          parts
    | Ast.Var name -> List.mem name bound
    | Ast.GetAttr (e, _) | Ast.Splat (e, _) | Ast.Unop (_, e) | Ast.Paren e ->
        go bound e
    | Ast.Index (a, b) | Ast.Binop (_, a, b) -> go bound a && go bound b
    | Ast.ListLit es | Ast.Call (_, es, _) -> List.for_all (go bound) es
    | Ast.ObjectLit kvs ->
        List.for_all
          (fun (k, v) ->
            (match k with Ast.Kident _ -> true | Ast.Kexpr k -> go bound k)
            && go bound v)
          kvs
    | Ast.Cond (c, a, b) -> go bound c && go bound a && go bound b
    | Ast.ForList fc -> go_for bound fc []
    | Ast.ForMap (fc, v) -> go_for bound fc [ v ]
  and go_for bound fc extra =
    go bound fc.Ast.coll
    &&
    let bound = (fc.Ast.val_var :: Option.to_list fc.Ast.key_var) @ bound in
    List.for_all (go bound)
      ((fc.Ast.body :: extra) @ Option.to_list fc.Ast.cond)
  in
  go [] e

(** A configuration compiled for {!instantiate}: what expansion can
    work out from the configuration alone.  Immutable, so one compiled
    configuration serves any number of states. *)
type compiled = {
  config : Config.t;
  locals : (string, Ast.expr) Hashtbl.t;  (** first-binding index *)
  nodes : (compiled_node list, exn) result;
      (** dependency order, or the ordering error to raise *)
  stateless : bool;
      (** every address and dependency is fixed, and nothing evaluated
          per state can fail *)
}

(** Compile a root configuration.  Never raises. *)
let compile (cfg : Config.t) : compiled =
  let locals = locals_index cfg.Config.locals in
  let static_scope = make_scope () in
  let static e =
    if closed e then
      match eval static_scope e with v -> Some v | exception _ -> None
    else None
  in
  (* the resource blocks compiled, by (type, name) *)
  let fixed = Hashtbl.create 16 in
  let single (t, n) =
    (not (List.mem t Refs.reserved))
    &&
    match Hashtbl.find_opt fixed (t, n) with
    | Some (Some { fcount = None; _ }) -> true
    | _ -> false
  in
  (* An expression whose evaluation cannot fail: a value that reads
     nothing, an attribute of a single instance (its value or an
     unknown), or a list, object or lone interpolation of those. *)
  let rec total (e : Ast.expr) =
    static e <> None
    ||
    match e.Ast.desc with
    | Ast.GetAttr
        ({ Ast.desc = Ast.GetAttr ({ Ast.desc = Ast.Var t; _ }, n); _ }, a) ->
        a <> addr_key && single (t, n)
    | Ast.ListLit es -> List.for_all total es
    | Ast.ObjectLit kvs ->
        List.for_all
          (function Ast.Kident _, v -> total v | Ast.Kexpr _, _ -> false)
          kvs
    | Ast.Template [ Ast.Interp e ] | Ast.Paren e -> total e
    | _ -> false
  in
  let instances_of key =
    match Hashtbl.find_opt fixed key with
    | Some (Some f) -> f.faddrs
    | Some None -> raise Exit
    | None -> []
  in
  let fix (r : Config.resource) ~targets =
    let body = r.Config.rbody in
    let names =
      List.map (fun (a : Ast.attribute) -> a.Ast.aname) body.Ast.attrs
    in
    let count =
      match (r.Config.rcount, r.Config.rfor_each) with
      | None, None -> Some None
      | Some ce, None -> (
          match static ce with
          | Some (Value.Vint n) when n >= 0 -> Some (Some n)
          | _ -> None)
      | _, Some _ -> None
    in
    match count with
    | Some fcount
      when body.Ast.blocks = []
           && List.length (List.sort_uniq String.compare names)
              = List.length names ->
        let addr key =
          Addr.make ~rtype:r.Config.rtype ~rname:r.Config.rname ~key ()
        in
        let fattrs =
          List.map
            (fun (a : Ast.attribute) ->
              ( a.Ast.aname,
                match static a.Ast.avalue with
                | Some v -> Static v
                | None -> Dynamic a.Ast.avalue ))
            body.Ast.attrs
        in
        Some
          {
            fres = r;
            fprovider = provider_of r;
            ftargets = targets;
            fcount;
            faddrs =
              (match fcount with
              | None -> [ addr Addr.Knone ]
              | Some n -> List.init n (fun i -> addr (Addr.Kint i)));
            fdeps =
              (try
                 Some (resource_deps ~module_path:[] cfg instances_of ~targets r)
               with Exit -> None);
            fstatic =
              List.fold_left
                (fun acc (name, a) ->
                  match a with
                  | Static v -> Smap.add name v acc
                  | Dynamic _ -> acc)
                Smap.empty fattrs;
            fattrs;
          }
    | _ -> None
  in
  let compile_node (node, targets) =
    match node with
    | Nres r -> (
        let f = fix r ~targets in
        Hashtbl.replace fixed (r.Config.rtype, r.Config.rname) f;
        match f with Some f -> Fixed f | None -> General (node, targets))
    | Ndata _ | Nmod _ -> General (node, targets)
  in
  let nodes =
    match order_nodes ~locals cfg with
    | ordered -> Ok (List.map compile_node ordered)
    | exception e -> Error e
  in
  (* Addresses and dependencies need no state when every block is fixed
     with its dependencies and nothing evaluated per state can fail:
     then no instantiation ends differently. *)
  let stateless =
    match nodes with
    | Error _ -> false
    | Ok nodes ->
        cfg.Config.variables = []
        && List.for_all
             (fun (o : Config.output) -> total o.Config.ovalue)
             cfg.Config.outputs
        && List.for_all
             (function
               | Fixed { fdeps = Some _; fattrs; _ } ->
                   List.for_all
                     (function _, Static _ -> true | _, Dynamic e -> total e)
                     fattrs
               | Fixed _ | General _ -> false)
             nodes
  in
  { config = cfg; locals; nodes; stateless }

(* Run [f] in an ["expand"] span counting the instances and outputs it
   produced. *)
let traced trace f =
  let module Trace = Cloudless_obs.Trace in
  Trace.with_span trace "expand" (fun () ->
      let result = f () in
      Trace.count trace "instances" (List.length result.instances);
      Trace.count trace "outputs" (List.length result.outputs);
      result)

let instantiate_root env ~vars (c : compiled) =
  drive ~direct_refs:true ~locals_tbl:c.locals
    { env with var_values = vars }
    ~module_path:[] ~vars c.config
    (fun _ -> match c.nodes with Ok nodes -> nodes | Error e -> raise e)

(** The instances of a compiled configuration expanded without a state,
    when their addresses and dependencies are those of every state and
    no instantiation can fail; [None] otherwise. *)
let skeleton c =
  if c.stateless then
    Some (instantiate_root default_env ~vars:Smap.empty c).instances
  else None

(** Expand a compiled configuration against one state ([env]'s
    [state_lookup]) and variable values.  With a live [trace], this runs
    in an ["expand"] span counting the instances and outputs it
    produced. *)
let instantiate ?(env = default_env) ?(vars = Smap.empty)
    ?(trace = Cloudless_obs.Trace.null) (c : compiled) : expansion_result =
  traced trace (fun () -> instantiate_root env ~vars c)

(** Expand a configuration to its resource instances and output values:
    {!compile}, then {!instantiate} once.  With a live [trace],
    expansion runs in an ["expand"] span counting the instances and
    outputs it produced. *)
let expand ?(env = default_env) ?(vars = Smap.empty)
    ?(trace = Cloudless_obs.Trace.null) (cfg : Config.t) : expansion_result =
  traced trace (fun () -> instantiate_root env ~vars (compile cfg))

(** The one-pass expander, every block evaluated in full for every
    state and every reference resolved through the referenced object:
    the oracle {!expand} is tested against. *)
module Reference = struct
  let expand ?(env = default_env) ?(vars = Smap.empty)
      ?(trace = Cloudless_obs.Trace.null) (cfg : Config.t) : expansion_result =
    traced trace (fun () ->
        drive ~direct_refs:false
          { env with var_values = vars }
          ~module_path:[] ~vars cfg (general cfg))
end

(** Evaluate a standalone expression with optional variable bindings —
    convenience for tests and tools. *)
let eval_expr ?(vars = Smap.empty) ?(locals = []) (e : Ast.expr) : Value.t =
  let scope = make_scope ~vars ~locals () in
  eval scope e

(** Parse and evaluate an expression from text. *)
let eval_string ?(vars = Smap.empty) src : Value.t =
  eval_expr ~vars (Parser.parse_expr_string src)
