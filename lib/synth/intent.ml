(** Type-guided IaC synthesis (§3.1).

    The paper proposes "decompos[ing] the infrastructure into its
    component elements to simplify synthesis, while jointly applying
    formal and textual specifications (e.g., type-guided and ML-based
    search)".  This module implements the formal half: an *intent* is
    a set of requested components; synthesis walks the knowledge base,
    fills required attributes with values generated from their semantic
    types, and closes over [Resource_id] requirements by synthesizing
    the missing dependencies — so the output is correct by
    construction with respect to the type discipline of §3.2. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Ast = Hcl.Ast
module Schema = Cloudless_schema
module T = Schema.Semantic_type

type request = {
  rtype : string;
  name : string;
  count : int;  (** > 1 emits a count block *)
  overrides : (string * Ast.expr) list;  (** user-pinned attributes *)
}

let request ?(count = 1) ?(overrides = []) ~rtype ~name () =
  { rtype; name; count; overrides }

type intent = {
  region : string;
  requests : request list;
}

(* A request synthesis cannot serve: a [types/unsupported]
   {!Cloudless_error.Error}. *)
let unsupported fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Types
    ~code:"unsupported" fmt

(* ------------------------------------------------------------------ *)
(* Value generation from semantic types                                *)
(* ------------------------------------------------------------------ *)

type ctx = {
  intent_region : string;
  mutable cidr_next : int;  (** /16 pool allocator: 10.<n>.0.0/16 *)
  mutable subnet_next : int;
  mutable synthesized : (string * string) list;
      (** (rtype, block name) already in the config, newest first *)
  mutable extra : Hcl.Config.resource list;  (** dependencies added *)
  mutable fresh : int;
}

let fresh_name ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "%s_%d" prefix ctx.fresh

let alloc_cidr ctx =
  let n = ctx.cidr_next in
  ctx.cidr_next <- n + 1;
  Printf.sprintf "10.%d.0.0/16" (n mod 250)

let alloc_subnet ctx =
  let n = ctx.subnet_next in
  ctx.subnet_next <- n + 1;
  Printf.sprintf "10.0.%d.0/24" (n mod 250)

let short_type rtype =
  match String.index_opt rtype '_' with
  | Some i -> String.sub rtype (i + 1) (String.length rtype - i - 1)
  | None -> rtype

(* Forward declaration: generating a Resource_id may synthesize the
   dependency resource. *)
let rec generate_value ctx (rtype : string) (attr : Schema.Resource_schema.attr)
    : Ast.expr =
  match attr.Schema.Resource_schema.aty with
  | T.Region -> Ast.string_lit ctx.intent_region
  | T.Cidr ->
      if attr.Schema.Resource_schema.aname = "address_prefix" then
        Ast.string_lit (alloc_subnet ctx)
      else if rtype = "aws_subnet" then Ast.string_lit (alloc_subnet ctx)
      else Ast.string_lit (alloc_cidr ctx)
  | T.Ip_address -> Ast.string_lit "10.0.0.10"
  | T.Name -> Ast.string_lit (fresh_name ctx (short_type rtype))
  | T.Str -> Ast.string_lit (fresh_name ctx attr.Schema.Resource_schema.aname)
  | T.Int -> Ast.mk (Ast.Int 1)
  | T.Num -> Ast.mk (Ast.Int 1)
  | T.Port -> Ast.mk (Ast.Int 443)
  | T.Protocol -> Ast.string_lit "tcp"
  | T.Bool -> Ast.mk (Ast.Bool false)
  | T.Enum (v :: _) -> Ast.string_lit v
  | T.Enum [] -> unsupported "empty enum"
  | T.Resource_id wanted -> reference_to ctx wanted
  | T.List_of (T.Resource_id wanted) ->
      Ast.mk (Ast.ListLit [ reference_to ctx wanted ])
  | T.List_of T.Cidr -> Ast.mk (Ast.ListLit [ Ast.string_lit (alloc_cidr ctx) ])
  | T.List_of _ -> Ast.mk (Ast.ListLit [])
  | T.Map_of _ -> Ast.mk (Ast.ObjectLit [])
  | T.Any -> Ast.string_lit "value"

(* A reference to a resource of type [wanted]: reuse one already in the
   configuration, else synthesize the dependency (recursively). *)
and reference_to ctx wanted : Ast.expr =
  let name =
    match List.assoc_opt wanted ctx.synthesized with
    | Some name -> name
    | None -> synthesize_dependency ctx wanted
  in
  Ast.mk
    (Ast.GetAttr
       (Ast.mk (Ast.GetAttr (Ast.mk (Ast.Var wanted), name)), "id"))

and synthesize_dependency ctx wanted : string =
  match Schema.Catalog.find wanted with
  | None -> unsupported "no schema for %s" wanted
  | Some schema ->
      let name = fresh_name ctx (short_type wanted) in
      (* register *before* recursing so cycles cannot diverge *)
      ctx.synthesized <- (wanted, name) :: ctx.synthesized;
      let attrs =
        Schema.Resource_schema.required_attrs schema
        |> List.map (fun (a : Schema.Resource_schema.attr) ->
               {
                 Ast.aname = a.Schema.Resource_schema.aname;
                 avalue = generate_value ctx wanted a;
                 aspan = Hcl.Loc.dummy;
               })
      in
      let r =
        {
          Hcl.Config.rtype = wanted;
          rname = name;
          rbody = { Ast.attrs; blocks = [] };
          rcount = None;
          rfor_each = None;
          rprovider = None;
          rdepends_on = [];
          rlifecycle = Hcl.Config.default_lifecycle;
          rspan = Hcl.Loc.dummy;
        }
      in
      ctx.extra <- r :: ctx.extra;
      name

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

(** Synthesize a configuration fulfilling the intent.  The result is
    type-correct by construction: every required attribute of every
    requested type is filled with a value generated from its semantic
    type, and every [Resource_id] reference points at a synthesized
    resource of exactly the right type. *)
let synthesize (intent : intent) : Hcl.Config.t =
  let ctx =
    {
      intent_region = intent.region;
      cidr_next = 0;
      subnet_next = 1;
      synthesized = [];
      extra = [];
      fresh = 0;
    }
  in
  let requested =
    List.map
      (fun req ->
        match Schema.Catalog.find req.rtype with
        | None -> unsupported "no schema for %s" req.rtype
        | Some schema ->
            ctx.synthesized <- (req.rtype, req.name) :: ctx.synthesized;
            let attrs =
              Schema.Resource_schema.required_attrs schema
              |> List.filter_map (fun (a : Schema.Resource_schema.attr) ->
                     if List.mem_assoc a.Schema.Resource_schema.aname req.overrides
                     then None
                     else
                       Some
                         {
                           Ast.aname = a.Schema.Resource_schema.aname;
                           avalue = generate_value ctx req.rtype a;
                           aspan = Hcl.Loc.dummy;
                         })
            in
            let override_attrs =
              List.map
                (fun (name, e) ->
                  { Ast.aname = name; avalue = e; aspan = Hcl.Loc.dummy })
                req.overrides
            in
            {
              Hcl.Config.rtype = req.rtype;
              rname = req.name;
              rbody = { Ast.attrs = attrs @ override_attrs; blocks = [] };
              rcount =
                (if req.count > 1 then Some (Ast.mk (Ast.Int req.count)) else None);
              rfor_each = None;
              rprovider = None;
              rdepends_on = [];
              rlifecycle = Hcl.Config.default_lifecycle;
              rspan = Hcl.Loc.dummy;
            })
      intent.requests
  in
  {
    (Hcl.Config.empty ~file:"<synthesized>") with
    Hcl.Config.resources = List.rev ctx.extra @ requested;
  }

(** Convenience: synthesize straight to HCL source text. *)
let synthesize_source intent = Hcl.Config.to_string (synthesize intent)
