(** An imperative, embedded front-end — the Pulumi analogue (§2.1).

    "In Pulumi, IaC programs are written using existing imperative
    programming languages ... its language runtime observes code
    execution to extract resource registrations in order to construct
    the graph."

    This module does exactly that for OCaml: user code runs ordinary
    OCaml, registering resources against a context; registration
    returns typed handles whose attribute projections become references
    in the generated configuration.  The output is a stock
    {!Cloudless_hcl.Config.t}, so everything downstream — validation,
    planning, policies, deployment — is shared with the declarative
    path.

    {[
      let cfg = Edsl.program (fun ctx ->
        let vpc =
          Edsl.resource ctx "aws_vpc" "main"
            [ ("cidr_block", Edsl.str "10.0.0.0/16");
              ("region", Edsl.str "us-east-1") ]
        in
        for i = 0 to 2 do
          ignore
            (Edsl.resource ctx "aws_subnet" (Printf.sprintf "s%d" i)
               [ ("vpc_id", Edsl.ref_ vpc "id");
                 ("cidr_block", Edsl.cidrsubnet (Edsl.ref_ vpc "cidr_block") 8 i);
                 ("region", Edsl.str "us-east-1") ])
        done)
    ]}

    Plain OCaml control flow (loops, functions, conditionals) replaces
    HCL's [count]/[for_each] — the imperative trade-off the paper
    describes. *)

module Hcl = Cloudless_hcl
module Ast = Hcl.Ast
module Value = Hcl.Value

(** A registered resource; project attributes with {!ref_}. *)
type handle = { h_rtype : string; h_name : string }

type ctx = {
  mutable resources : Hcl.Config.resource list;  (** reverse order *)
  mutable outputs : Hcl.Config.output list;  (** reverse order *)
  mutable names : (string * string) list;  (** registered (rtype, name) *)
}

(* ------------------------------------------------------------------ *)
(* Expression builders                                                 *)
(* ------------------------------------------------------------------ *)

type expr = Ast.expr

let str s : expr = Ast.string_lit s
let int_ n : expr = Ast.mk (Ast.Int n)
let float_ f : expr = Ast.mk (Ast.Float f)
let bool_ b : expr = Ast.mk (Ast.Bool b)
let list_ es : expr = Ast.mk (Ast.ListLit es)

let map_ kvs : expr =
  Ast.mk (Ast.ObjectLit (List.map (fun (k, v) -> (Ast.Kident k, v)) kvs))

(** [ref_ h attr] — a reference to the handle's attribute, e.g.
    [ref_ vpc "id"] renders as [aws_vpc.main.id]. *)
let ref_ (h : handle) attr : expr =
  Ast.mk
    (Ast.GetAttr
       (Ast.mk (Ast.GetAttr (Ast.mk (Ast.Var h.h_rtype), h.h_name)), attr))

(** Function call, e.g. [call "upper" [str "x"]]. *)
let call name args : expr = Ast.mk (Ast.Call (name, args, false))

let cidrsubnet prefix newbits netnum : expr =
  call "cidrsubnet" [ prefix; int_ newbits; int_ netnum ]

(** String interpolation from parts: [interp [`S "web-"; `E e]]. *)
let interp parts : expr =
  Ast.mk
    (Ast.Template
       (List.map
          (function `S s -> Ast.Lit s | `E e -> Ast.Interp e)
          parts))

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let create () = { resources = []; outputs = []; names = [] }

(** Register a resource and return its handle.  Like Pulumi's resource
    constructors, registration is observed at execution time; names
    must be unique per type, and a second registration raises a
    [syntax/structure-error] {!Cloudless_error.Error}. *)
let resource ?(depends_on = []) ctx rtype name attrs : handle =
  if List.mem (rtype, name) ctx.names then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Syntax
      ~code:"structure-error" "resource %s.%s registered twice" rtype name;
  ctx.names <- (rtype, name) :: ctx.names;
  let body_attrs =
    List.map
      (fun (aname, avalue) -> { Ast.aname; avalue; aspan = Hcl.Loc.dummy })
      attrs
  in
  ctx.resources <-
    {
      Hcl.Config.rtype;
      rname = name;
      rbody = { Ast.attrs = body_attrs; blocks = [] };
      rcount = None;
      rfor_each = None;
      rprovider = None;
      rdepends_on = List.map (fun h -> (h.h_rtype, h.h_name)) depends_on;
      rlifecycle = Hcl.Config.default_lifecycle;
      rspan = Hcl.Loc.dummy;
    }
    :: ctx.resources;
  { h_rtype = rtype; h_name = name }

(** Export a value, like Pulumi's stack outputs. *)
let export ctx name value =
  ctx.outputs <-
    {
      Hcl.Config.oname = name;
      ovalue = value;
      odescription = None;
      ospan = Hcl.Loc.dummy;
    }
    :: ctx.outputs

(** Extract the configuration after user code ran. *)
let to_config ctx : Hcl.Config.t =
  {
    (Hcl.Config.empty ~file:"<edsl>") with
    Hcl.Config.resources = List.rev ctx.resources;
    outputs = List.rev ctx.outputs;
  }

(** Run an imperative program and collect its registrations. *)
let program (f : ctx -> unit) : Hcl.Config.t =
  let ctx = create () in
  f ctx;
  to_config ctx
