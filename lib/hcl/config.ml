(** Structured view of a parsed configuration.

    Raises a [syntax/structure-error] ({!Cloudless_error.Error}) when a
    well-formed HCL body is not a well-formed *configuration* (wrong
    label counts, unknown top-level block types, duplicate names,
    ...). *)

let errf span fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Syntax
    ~code:"structure-error" ~span fmt

type variable = {
  vname : string;
  vtype : string option;  (** declared type, e.g. ["string"], ["list"] *)
  vdefault : Ast.expr option;
  vdescription : string option;
  vspan : Loc.span;
}

type lifecycle = {
  create_before_destroy : bool;
  prevent_destroy : bool;
  ignore_changes : string list;
}

let default_lifecycle =
  { create_before_destroy = false; prevent_destroy = false; ignore_changes = [] }

type resource = {
  rtype : string;
  rname : string;
  rbody : Ast.body;  (** body minus meta-arguments *)
  rcount : Ast.expr option;
  rfor_each : Ast.expr option;
  rprovider : string option;  (** explicit [provider =] override *)
  rdepends_on : (string * string) list;  (** (type, name) pairs *)
  rlifecycle : lifecycle;
  rspan : Loc.span;
}

type data_source = {
  dtype : string;
  dname : string;
  dbody : Ast.body;
  dspan : Loc.span;
}

type output = {
  oname : string;
  ovalue : Ast.expr;
  odescription : string option;
  ospan : Loc.span;
}

type module_call = {
  mname : string;
  msource : string;
  margs : (string * Ast.expr) list;  (** arguments minus meta-arguments *)
  mcount : Ast.expr option;
  mfor_each : Ast.expr option;
  mspan : Loc.span;
}

type provider_config = {
  pname : string;
  pbody : Ast.body;
  pspan : Loc.span;
}

type t = {
  file : string;
  variables : variable list;
  locals : (string * Ast.expr) list;
  resources : resource list;
  data_sources : data_source list;
  outputs : output list;
  modules : module_call list;
  providers : provider_config list;
}

let empty ~file =
  {
    file;
    variables = [];
    locals = [];
    resources = [];
    data_sources = [];
    outputs = [];
    modules = [];
    providers = [];
  }

(* ------------------------------------------------------------------ *)
(* Extraction helpers                                                  *)
(* ------------------------------------------------------------------ *)

let literal_string span e =
  match e.Ast.desc with
  | Ast.Template [ Ast.Lit s ] -> s
  | Ast.Template [] -> ""
  | _ -> errf span "expected a literal string"

let opt_literal_string body name =
  match Ast.attr body name with
  | None -> None
  | Some e ->
      let span = Option.value ~default:Loc.dummy (Ast.attr_span body name) in
      Some (literal_string span e)

let literal_bool span e =
  match e.Ast.desc with
  | Ast.Bool b -> b
  | _ -> errf span "expected a literal bool"

(* depends_on = [aws_vpc.main, module.net] : references given as bare
   traversals. *)
let parse_depends_on span e =
  let one (item : Ast.expr) =
    match Refs.of_expr item with
    | [ Refs.Tresource (t, n) ] -> (t, n)
    | [ Refs.Tdata (t, n) ] -> ("data." ^ t, n)
    | [ Refs.Tmodule (m, _) ] -> ("module", m)
    | _ -> errf span "depends_on entries must be resource references"
  in
  match e.Ast.desc with
  | Ast.ListLit items -> List.map one items
  | _ -> errf span "depends_on must be a list"

let parse_lifecycle (b : Ast.block) =
  let body = b.Ast.bbody in
  let get_bool name =
    match Ast.attr body name with
    | None -> false
    | Some e ->
        literal_bool (Option.value ~default:b.Ast.bspan (Ast.attr_span body name)) e
  in
  let ignore_changes =
    match Ast.attr body "ignore_changes" with
    | None -> []
    | Some { Ast.desc = Ast.ListLit items; _ } ->
        List.map
          (fun (item : Ast.expr) ->
            match item.Ast.desc with
            | Ast.Var name -> name
            | Ast.Template [ Ast.Lit s ] -> s
            | _ -> errf b.Ast.bspan "ignore_changes entries must be attribute names")
          items
    | Some _ -> errf b.Ast.bspan "ignore_changes must be a list"
  in
  {
    create_before_destroy = get_bool "create_before_destroy";
    prevent_destroy = get_bool "prevent_destroy";
    ignore_changes;
  }

(* Strip the meta-arguments out of a resource body, returning them
   separately. *)
let split_resource_body (b : Ast.block) =
  let body = b.Ast.bbody in
  let meta = [ "count"; "for_each"; "provider"; "depends_on" ] in
  let plain_attrs =
    List.filter (fun (a : Ast.attribute) -> not (List.mem a.Ast.aname meta)) body.attrs
  in
  let lifecycle_blocks, other_blocks =
    List.partition (fun (bl : Ast.block) -> bl.Ast.btype = "lifecycle") body.blocks
  in
  let rcount = Ast.attr body "count" in
  let rfor_each = Ast.attr body "for_each" in
  let rprovider =
    match Ast.attr body "provider" with
    | None -> None
    | Some e -> (
        match e.Ast.desc with
        | Ast.Var p -> Some p
        | Ast.GetAttr ({ Ast.desc = Ast.Var p; _ }, alias) -> Some (p ^ "." ^ alias)
        | Ast.Template [ Ast.Lit s ] -> Some s
        | _ -> errf b.Ast.bspan "provider must be a provider reference")
  in
  let rdepends_on =
    match Ast.attr body "depends_on" with
    | None -> []
    | Some e ->
        parse_depends_on
          (Option.value ~default:b.Ast.bspan (Ast.attr_span body "depends_on"))
          e
  in
  let rlifecycle =
    match lifecycle_blocks with
    | [] -> default_lifecycle
    | [ lb ] -> parse_lifecycle lb
    | _ -> errf b.Ast.bspan "multiple lifecycle blocks"
  in
  ( { Ast.attrs = plain_attrs; blocks = other_blocks },
    rcount,
    rfor_each,
    rprovider,
    rdepends_on,
    rlifecycle )

(* ------------------------------------------------------------------ *)
(* Duplicate declarations                                              *)
(* ------------------------------------------------------------------ *)

(* A declared name, the key of the duplicate checks: {!of_body} checks
   each block against the blocks before it in its file, {!merge} each
   file against the files before it, each with one table probe rather
   than a scan of every earlier declaration. *)
type name =
  | Variable of string
  | Resource of string * string
  | Data of string * string
  | Output of string
  | Module of string
  | Local of string

let describe = function
  | Variable n -> Printf.sprintf "variable %S" n
  | Resource (t, n) -> Printf.sprintf "resource %s.%s" t n
  | Data (t, n) -> Printf.sprintf "data source data.%s.%s" t n
  | Output n -> Printf.sprintf "output %S" n
  | Module n -> Printf.sprintf "module %S" n
  | Local n -> Printf.sprintf "local %S" n

(* [where] is appended to the message: "" within a file, " across
   files" in {!merge}. *)
let check_fresh seen ~where span name =
  if Hashtbl.mem seen name then errf span "duplicate %s%s" (describe name) where

let declare seen name = Hashtbl.replace seen name ()

(* ------------------------------------------------------------------ *)
(* Top-level assembly                                                  *)
(* ------------------------------------------------------------------ *)

let of_body ~file (body : Ast.body) : t =
  if body.Ast.attrs <> [] then begin
    let a = List.hd body.Ast.attrs in
    errf a.Ast.aspan "attribute %S not allowed at top level" a.Ast.aname
  end;
  let seen = Hashtbl.create (List.length body.Ast.blocks) in
  let fresh span name =
    check_fresh seen ~where:"" span name;
    declare seen name
  in
  (* each kind accumulates newest first, reversed once at the end *)
  let variables = ref [] and locals = ref [] and resources = ref [] in
  let data_sources = ref [] and outputs = ref [] and modules = ref [] in
  let providers = ref [] in
  let add_variable (b : Ast.block) name =
    let vb = b.Ast.bbody in
    let vtype =
      match Ast.attr vb "type" with
      | None -> None
      | Some e -> (
          match e.Ast.desc with
          | Ast.Var ty -> Some ty
          | Ast.Template [ Ast.Lit ty ] -> Some ty
          | Ast.Call (ctor, _, _) -> Some ctor
          | _ -> errf b.Ast.bspan "variable type must be a type name")
    in
    let v =
      {
        vname = name;
        vtype;
        vdefault = Ast.attr vb "default";
        vdescription = opt_literal_string vb "description";
        vspan = b.Ast.bspan;
      }
    in
    fresh b.Ast.bspan (Variable name);
    variables := v :: !variables
  in
  let add_resource (b : Ast.block) rtype rname =
    fresh b.Ast.bspan (Resource (rtype, rname));
    let rbody, rcount, rfor_each, rprovider, rdepends_on, rlifecycle =
      split_resource_body b
    in
    let r =
      {
        rtype;
        rname;
        rbody;
        rcount;
        rfor_each;
        rprovider;
        rdepends_on;
        rlifecycle;
        rspan = b.Ast.bspan;
      }
    in
    resources := r :: !resources
  in
  let add_data (b : Ast.block) dtype dname =
    fresh b.Ast.bspan (Data (dtype, dname));
    let d = { dtype; dname; dbody = b.Ast.bbody; dspan = b.Ast.bspan } in
    data_sources := d :: !data_sources
  in
  let add_output (b : Ast.block) name =
    let ob = b.Ast.bbody in
    let ovalue =
      match Ast.attr ob "value" with
      | Some e -> e
      | None -> errf b.Ast.bspan "output %S has no value" name
    in
    let o =
      {
        oname = name;
        ovalue;
        odescription = opt_literal_string ob "description";
        ospan = b.Ast.bspan;
      }
    in
    fresh b.Ast.bspan (Output name);
    outputs := o :: !outputs
  in
  let add_module (b : Ast.block) name =
    let mb = b.Ast.bbody in
    let msource =
      match Ast.attr mb "source" with
      | Some e ->
          literal_string
            (Option.value ~default:b.Ast.bspan (Ast.attr_span mb "source"))
            e
      | None -> errf b.Ast.bspan "module %S has no source" name
    in
    let meta = [ "source"; "count"; "for_each"; "providers"; "depends_on" ] in
    let margs =
      List.filter_map
        (fun (a : Ast.attribute) ->
          if List.mem a.Ast.aname meta then None
          else Some (a.Ast.aname, a.Ast.avalue))
        mb.Ast.attrs
    in
    let m =
      {
        mname = name;
        msource;
        margs;
        mcount = Ast.attr mb "count";
        mfor_each = Ast.attr mb "for_each";
        mspan = b.Ast.bspan;
      }
    in
    fresh b.Ast.bspan (Module name);
    modules := m :: !modules
  in
  let add_locals (b : Ast.block) =
    let entries =
      List.map (fun (a : Ast.attribute) -> (a.Ast.aname, a.Ast.avalue)) b.Ast.bbody.attrs
    in
    (* against earlier blocks only: a block's own names are declared
       after all of them are checked *)
    List.iter
      (fun (n, _) -> check_fresh seen ~where:"" b.Ast.bspan (Local n))
      entries;
    List.iter (fun (n, _) -> declare seen (Local n)) entries;
    locals := List.rev_append entries !locals
  in
  let add_provider (b : Ast.block) name =
    let p = { pname = name; pbody = b.Ast.bbody; pspan = b.Ast.bspan } in
    providers := p :: !providers
  in
  List.iter
    (fun (b : Ast.block) ->
      match (b.Ast.btype, b.Ast.labels) with
      | "variable", [ name ] -> add_variable b name
      | "variable", _ -> errf b.Ast.bspan "variable block takes exactly one label"
      | "resource", [ rtype; rname ] -> add_resource b rtype rname
      | "resource", _ -> errf b.Ast.bspan "resource block takes two labels"
      | "data", [ dtype; dname ] -> add_data b dtype dname
      | "data", _ -> errf b.Ast.bspan "data block takes two labels"
      | "output", [ name ] -> add_output b name
      | "output", _ -> errf b.Ast.bspan "output block takes exactly one label"
      | "module", [ name ] -> add_module b name
      | "module", _ -> errf b.Ast.bspan "module block takes exactly one label"
      | "locals", [] -> add_locals b
      | "locals", _ -> errf b.Ast.bspan "locals block takes no labels"
      | "provider", [ name ] -> add_provider b name
      | "provider", _ -> errf b.Ast.bspan "provider block takes exactly one label"
      | "terraform", _ -> ()  (* settings block: accepted and ignored *)
      | ty, _ -> errf b.Ast.bspan "unknown top-level block type %S" ty)
    body.Ast.blocks;
  {
    file;
    variables = List.rev !variables;
    locals = List.rev !locals;
    resources = List.rev !resources;
    data_sources = List.rev !data_sources;
    outputs = List.rev !outputs;
    modules = List.rev !modules;
    providers = List.rev !providers;
  }

(** Parse source text into a structured configuration. *)
let parse ~file src = of_body ~file (Parser.parse ~file src)

let find_resource t rtype rname =
  List.find_opt (fun r -> r.rtype = rtype && r.rname = rname) t.resources

let find_module t name = List.find_opt (fun m -> m.mname = name) t.modules

(** Reconstruct a printable AST body from a structured config.  Blocks
    appear in a conventional order: variables, locals, data, resources,
    modules, outputs. *)
let to_body (t : t) : Ast.body =
  let variable_block v =
    let attrs =
      (match v.vtype with
      | Some ty ->
          [ { Ast.aname = "type"; avalue = Ast.mk (Ast.Var ty); aspan = Loc.dummy } ]
      | None -> [])
      @ (match v.vdefault with
        | Some d -> [ { Ast.aname = "default"; avalue = d; aspan = Loc.dummy } ]
        | None -> [])
      @
      match v.vdescription with
      | Some d ->
          [
            {
              Ast.aname = "description";
              avalue = Ast.string_lit d;
              aspan = Loc.dummy;
            };
          ]
      | None -> []
    in
    {
      Ast.btype = "variable";
      labels = [ v.vname ];
      bbody = { Ast.attrs; blocks = [] };
      bspan = v.vspan;
    }
  in
  let locals_block =
    if t.locals = [] then []
    else
      [
        {
          Ast.btype = "locals";
          labels = [];
          bbody =
            {
              Ast.attrs =
                List.map
                  (fun (name, e) ->
                    { Ast.aname = name; avalue = e; aspan = Loc.dummy })
                  t.locals;
              blocks = [];
            };
          bspan = Loc.dummy;
        };
      ]
  in
  let data_block d =
    { Ast.btype = "data"; labels = [ d.dtype; d.dname ]; bbody = d.dbody; bspan = d.dspan }
  in
  let resource_block r =
    let meta_attrs =
      (match r.rcount with
      | Some c -> [ { Ast.aname = "count"; avalue = c; aspan = Loc.dummy } ]
      | None -> [])
      @
      match r.rfor_each with
      | Some fe -> [ { Ast.aname = "for_each"; avalue = fe; aspan = Loc.dummy } ]
      | None -> []
    in
    let depends_attr =
      if r.rdepends_on = [] then []
      else
        [
          {
            Ast.aname = "depends_on";
            avalue =
              Ast.mk
                (Ast.ListLit
                   (List.map
                      (fun (ty, n) ->
                        Ast.mk (Ast.GetAttr (Ast.mk (Ast.Var ty), n)))
                      r.rdepends_on));
            aspan = Loc.dummy;
          };
        ]
    in
    {
      Ast.btype = "resource";
      labels = [ r.rtype; r.rname ];
      bbody =
        {
          Ast.attrs = meta_attrs @ r.rbody.Ast.attrs @ depends_attr;
          blocks = r.rbody.Ast.blocks;
        };
      bspan = r.rspan;
    }
  in
  let module_block m =
    let attrs =
      { Ast.aname = "source"; avalue = Ast.string_lit m.msource; aspan = Loc.dummy }
      :: List.map
           (fun (name, e) -> { Ast.aname = name; avalue = e; aspan = Loc.dummy })
           m.margs
    in
    {
      Ast.btype = "module";
      labels = [ m.mname ];
      bbody = { Ast.attrs; blocks = [] };
      bspan = m.mspan;
    }
  in
  let output_block o =
    {
      Ast.btype = "output";
      labels = [ o.oname ];
      bbody =
        {
          Ast.attrs =
            [ { Ast.aname = "value"; avalue = o.ovalue; aspan = Loc.dummy } ];
          blocks = [];
        };
      bspan = o.ospan;
    }
  in
  let provider_block p =
    { Ast.btype = "provider"; labels = [ p.pname ]; bbody = p.pbody; bspan = p.pspan }
  in
  {
    Ast.attrs = [];
    blocks =
      List.map provider_block t.providers
      @ List.map variable_block t.variables
      @ locals_block
      @ List.map data_block t.data_sources
      @ List.map resource_block t.resources
      @ List.map module_block t.modules
      @ List.map output_block t.outputs;
  }

(** Render a structured configuration back to HCL text. *)
let to_string t = Printer.config_to_string (to_body t)

(** Merge several parsed files into one configuration (Terraform's
    directory model: all [*.tf] files in a directory form one module).
    Duplicate declarations across files are errors, like within one
    file, reported at the later declaration (a local at its value).
    Each file is checked against the names of the files before it,
    then its names join them; the lists concatenate once. *)
let merge (configs : t list) : t =
  match configs with
  | [] -> empty ~file:"<empty>"
  | first :: rest ->
      (* in check order *)
      let names c =
        List.map (fun v -> (v.vspan, Variable v.vname)) c.variables
        @ List.map (fun r -> (r.rspan, Resource (r.rtype, r.rname))) c.resources
        @ List.map (fun d -> (d.dspan, Data (d.dtype, d.dname))) c.data_sources
        @ List.map (fun o -> (o.ospan, Output o.oname)) c.outputs
        @ List.map (fun m -> (m.mspan, Module m.mname)) c.modules
        @ List.map (fun (n, e) -> (e.Ast.espan, Local n)) c.locals
      in
      let seen = Hashtbl.create 64 in
      List.iter (fun (_, n) -> declare seen n) (names first);
      List.iter
        (fun c ->
          let ns = names c in
          List.iter
            (fun (span, n) -> check_fresh seen ~where:" across files" span n)
            ns;
          List.iter (fun (_, n) -> declare seen n) ns)
        rest;
      let cat field = List.concat_map field configs in
      {
        first with
        variables = cat (fun c -> c.variables);
        locals = cat (fun c -> c.locals);
        resources = cat (fun c -> c.resources);
        data_sources = cat (fun c -> c.data_sources);
        outputs = cat (fun c -> c.outputs);
        modules = cat (fun c -> c.modules);
        providers = cat (fun c -> c.providers);
      }
