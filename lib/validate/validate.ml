(** The staged validation pipeline (§3.2).

    Four stages, each catching strictly more than stock tooling:

    1. {b Syntax}: lexing/parsing/structural errors — what [terraform
       validate] catches today.
    2. {b References}: every [var.x] / [aws_vpc.y] / [module.z]
       reference must resolve to a declaration.
    3. {b Types}: attributes checked against the knowledge base's
       semantic types (wrong-type resource references, bad CIDRs,
       unknown regions, missing required attributes).
    4. {b Cloud rules}: cross-resource cloud-level constraints
       (VM/NIC same region, peering overlaps, ...).

    Experiment E6 measures the misconfiguration catch rate of each
    prefix of this pipeline. *)

module Hcl = Cloudless_hcl
module Schema = Cloudless_schema
module Trace = Cloudless_obs.Trace
module Smap = Hcl.Value.Smap
module Sset = Set.Make (String)

module Pset = Set.Make (struct
  type t = string * string

  let compare = Stdlib.compare
end)

type level = L_syntax | L_references | L_types | L_cloud

let level_includes level stage =
  let rank = function
    | L_syntax -> 0
    | L_references -> 1
    | L_types -> 2
    | L_cloud -> 3
  in
  let stage_rank = function
    | Diagnostic.Syntax -> 0
    | Diagnostic.References -> 1
    | Diagnostic.Types -> 2
    | Diagnostic.Cloud_rules | Diagnostic.Mined -> 3
    (* engine stages never originate in the validator; deepest rank *)
    | Diagnostic.Plan_stage | Diagnostic.Deploy | Diagnostic.State_io
    | Diagnostic.Policy | Diagnostic.Internal ->
        3
  in
  stage_rank stage <= rank level

(* ------------------------------------------------------------------ *)
(* Stage 2: reference checking                                         *)
(* ------------------------------------------------------------------ *)

let check_references (cfg : Hcl.Config.t) : Diagnostic.t list =
  (* declared-name sets are built once, so each reference resolves in
     O(log d) instead of a List.mem scan over every declaration *)
  let declared_vars =
    Sset.of_list (List.map (fun v -> v.Hcl.Config.vname) cfg.variables)
  in
  let declared_locals = Sset.of_list (List.map fst cfg.locals) in
  let declared_resources =
    Pset.of_list
      (List.map (fun r -> (r.Hcl.Config.rtype, r.Hcl.Config.rname)) cfg.resources)
  in
  let declared_data =
    Pset.of_list
      (List.map
         (fun d -> (d.Hcl.Config.dtype, d.Hcl.Config.dname))
         cfg.data_sources)
  in
  let declared_modules =
    Sset.of_list (List.map (fun m -> m.Hcl.Config.mname) cfg.modules)
  in
  let check_targets ~where span targets =
    List.filter_map
      (fun t ->
        let issue code msg =
          Some (Diagnostic.make ~stage:Diagnostic.References ~code ~span msg)
        in
        match t with
        | Hcl.Refs.Tvar x when not (Sset.mem x declared_vars) ->
            issue "undeclared-variable"
              (Printf.sprintf "%s references undeclared variable var.%s" where x)
        | Hcl.Refs.Tlocal x when not (Sset.mem x declared_locals) ->
            issue "undeclared-local"
              (Printf.sprintf "%s references undeclared local.%s" where x)
        | Hcl.Refs.Tresource (ty, n) when not (Pset.mem (ty, n) declared_resources)
          ->
            issue "undeclared-resource"
              (Printf.sprintf "%s references undeclared resource %s.%s" where ty n)
        | Hcl.Refs.Tdata (ty, n) when not (Pset.mem (ty, n) declared_data) ->
            issue "undeclared-data"
              (Printf.sprintf "%s references undeclared data.%s.%s" where ty n)
        | Hcl.Refs.Tmodule (m, _) when not (Sset.mem m declared_modules) ->
            issue "undeclared-module"
              (Printf.sprintf "%s references undeclared module.%s" where m)
        | _ -> None)
      targets
  in
  let resource_diags =
    List.concat_map
      (fun (r : Hcl.Config.resource) ->
        let where = Printf.sprintf "%s.%s" r.rtype r.rname in
        check_targets ~where r.rspan
          (Hcl.Refs.of_body r.rbody
          @ (match r.rcount with Some e -> Hcl.Refs.of_expr e | None -> [])
          @
          match r.rfor_each with Some e -> Hcl.Refs.of_expr e | None -> []))
      cfg.resources
  in
  let local_diags =
    List.concat_map
      (fun (name, e) ->
        check_targets ~where:("local." ^ name) Hcl.Loc.dummy (Hcl.Refs.of_expr e))
      cfg.locals
  in
  let output_diags =
    List.concat_map
      (fun (o : Hcl.Config.output) ->
        check_targets ~where:("output." ^ o.oname) o.ospan
          (Hcl.Refs.of_expr o.ovalue))
      cfg.outputs
  in
  let module_diags =
    List.concat_map
      (fun (m : Hcl.Config.module_call) ->
        List.concat_map
          (fun (_, e) ->
            check_targets ~where:("module." ^ m.mname) m.mspan
              (Hcl.Refs.of_expr e))
          m.margs)
      cfg.modules
  in
  resource_diags @ local_diags @ output_diags @ module_diags

(* ------------------------------------------------------------------ *)
(* Stage 3: schema / semantic type checking over expanded instances    *)
(* ------------------------------------------------------------------ *)

(** The attributes each instance's block sets, against its type's
    schema; a required attribute may come from the instance's row. *)
let check_types (instances : Hcl.Eval.instance list) : Diagnostic.t list =
  List.concat_map
    (fun (i : Hcl.Eval.instance) ->
      let rtype = i.Hcl.Eval.addr.Hcl.Addr.rtype in
      match Schema.Catalog.find rtype with
      | None ->
          [
            Diagnostic.make ~severity:Diagnostic.Warning ~stage:Diagnostic.Types
              ~code:"unknown-resource-type" ~span:i.Hcl.Eval.ispan
              ~addr:i.Hcl.Eval.addr
              (Printf.sprintf "resource type %S is not in the knowledge base"
                 rtype);
          ]
      | Some schema ->
          let missing_required =
            Schema.Resource_schema.required_attrs schema
            |> List.filter_map (fun (a : Schema.Resource_schema.attr) ->
                   match Hcl.Eval.merged_attr i a.aname with
                   | Some v when v <> Hcl.Value.Vnull -> None
                   | _ ->
                       Some
                         (Diagnostic.make ~stage:Diagnostic.Types
                            ~code:"missing-required" ~span:i.Hcl.Eval.ispan
                            ~addr:i.Hcl.Eval.addr
                            (Printf.sprintf
                               "required attribute %S is not set" a.aname)))
          in
          let attr_diags =
            i.Hcl.Eval.configured
            |> List.concat_map (fun name ->
                   match
                     ( Schema.Resource_schema.find_attr schema name,
                       Hcl.Eval.merged_attr i name )
                   with
                   | _, None -> []
                   | None, Some _ ->
                       [
                         Diagnostic.make ~severity:Diagnostic.Warning
                           ~stage:Diagnostic.Types ~code:"unknown-attribute"
                           ~span:i.Hcl.Eval.ispan ~addr:i.Hcl.Eval.addr
                           (Printf.sprintf
                              "attribute %S is not part of %s's schema" name
                              rtype);
                       ]
                   | Some a, Some v -> (
                       if a.computed then
                         (* users setting computed attrs is suspicious
                            but happens in imported configs *)
                         []
                       else
                         match Schema.Semantic_type.check a.aty v with
                         | Ok () -> []
                         | Error msg ->
                             [
                               Diagnostic.make ~stage:Diagnostic.Types
                                 ~code:"type-mismatch" ~span:i.Hcl.Eval.ispan
                                 ~addr:i.Hcl.Eval.addr
                                 (Printf.sprintf "%s: %s" name msg);
                             ]))
          in
          missing_required @ attr_diags)
    instances

(* ------------------------------------------------------------------ *)
(* Stage 4: cloud-level cross-resource rules                           *)
(* ------------------------------------------------------------------ *)

let check_cloud_rules (instances : Hcl.Eval.instance list) : Diagnostic.t list =
  Schema.Rules.check_all instances
  |> List.map (fun (v : Schema.Rules.violation) ->
         Diagnostic.make ~stage:Diagnostic.Cloud_rules ~code:v.rule_id
           ~span:v.span ~addr:v.addr v.message)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  diagnostics : Diagnostic.t list;
  expansion : Hcl.Eval.expansion_result option;
      (** available when syntax+references+expansion succeeded *)
}

let ok report = Diagnostic.count_errors report.diagnostics = 0

let count_diags trace diags =
  Trace.count trace "diagnostics" (List.length diags);
  Trace.count trace "errors" (Diagnostic.count_errors diags)

(** Validate a configuration (already parsed).  With a live [trace],
    the pipeline runs in a ["validate"] span counting the diagnostics
    (total and errors) it produced. *)
let validate_config ?(level = L_cloud) ?(env = Hcl.Eval.default_env)
    ?(vars = Smap.empty) ?(trace = Trace.null) (cfg : Hcl.Config.t) : report =
  Trace.with_span trace "validate" @@ fun () ->
  let finish report =
    count_diags trace report.diagnostics;
    report
  in
  finish
  @@
  let ref_diags =
    if level_includes level Diagnostic.References then check_references cfg
    else []
  in
  (* If references are broken, expansion would raise; stop here. *)
  if List.exists Diagnostic.is_error ref_diags then
    { diagnostics = ref_diags; expansion = None }
  else
    match Hcl.Eval.expand ~env ~vars cfg with
    | exception Cloudless_error.Error ({ stage = References; _ } as d) ->
        (* expansion failures (eval and type errors) are reference-stage
           findings; at the syntax-only level they are out of scope *)
        let diag =
          if level_includes level Diagnostic.References then [ d ] else []
        in
        { diagnostics = ref_diags @ diag; expansion = None }
    | expansion ->
        let type_diags =
          if level_includes level Diagnostic.Types then
            check_types expansion.Hcl.Eval.instances
          else []
        in
        let rule_diags =
          if level_includes level Diagnostic.Cloud_rules then
            check_cloud_rules expansion.Hcl.Eval.instances
          else []
        in
        {
          diagnostics = ref_diags @ type_diags @ rule_diags;
          expansion = Some expansion;
        }

(** Validate source text end to end. *)
let validate_source ?(level = L_cloud) ?(env = Hcl.Eval.default_env)
    ?(vars = Smap.empty) ?(trace = Trace.null) ~file src : report =
  match Hcl.Config.parse ~file src with
  | cfg -> validate_config ~level ~env ~vars ~trace cfg
  | exception Cloudless_error.Error ({ stage = Syntax; _ } as d) ->
      let report = { diagnostics = [ d ]; expansion = None } in
      Trace.with_span trace "validate" (fun () ->
          count_diags trace report.diagnostics;
          report)

(** Check instances against previously mined specifications (§3.6
    outlier detection) and convert deviations to diagnostics. *)
let check_mined_specs specs (instances : Hcl.Eval.instance list) :
    Diagnostic.t list =
  Schema.Mining.check_deviations specs instances
  |> List.map (fun (d : Schema.Mining.deviation) ->
         Diagnostic.make ~severity:Diagnostic.Warning ~stage:Diagnostic.Mined
           ~code:"spec-deviation" ~addr:d.daddr
           (Schema.Mining.deviation_to_string d))
