(** Program regeneration after drift (§3.5).

    "The IaC frameworks should either regenerate the IaC-level program
    to reflect the latest deployment, or notify corresponding parties
    for further reconciliation."

    {!Drift.reconcile} handles the state side; this module handles the
    *program* side:

    - {!update_config_attr}: an accepted attribute drift is folded back
      into the resource block's literal, so the program and the cloud
      agree again;
    - {!adopt_unmanaged}: a resource created outside IaC is imported —
      a resource block is generated from its live attributes (reusing
      the §3.1 importer's pruning rules) and a state entry is added, so
      the next plan treats it as managed instead of unknown;
    - {!drop_deleted}: a resource deleted out-of-band is removed from
      the program and state, accepting the deletion. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Ast = Hcl.Ast
module Addr = Hcl.Addr
module Smap = Value.Smap
module State = Cloudless_state.State
module Cloud = Cloudless_sim.Cloud
module Schema = Cloudless_schema

type outcome = {
  config : Hcl.Config.t;
  state : State.t;
  description : string;
}

(* attributes the importer would prune: computed ones *)
let settable_attrs rtype attrs =
  let computed =
    match Schema.Catalog.find rtype with
    | Some s -> Schema.Resource_schema.computed_attr_names s
    | None -> [ "id"; "arn" ]
  in
  Smap.filter (fun k _ -> not (List.mem k computed)) attrs

(** Fold an accepted attribute drift back into the program: the
    resource block's literal is replaced by the observed value.  Only
    literal attributes can be regenerated; attributes computed from
    expressions are left for a human (returns [None]). *)
let update_config_attr (cfg : Hcl.Config.t) ~(addr : Addr.t) ~attr
    ~(value : Value.t) : Hcl.Config.t option =
  match Hcl.Config.find_resource cfg addr.Addr.rtype addr.Addr.rname with
  | None -> None
  | Some r -> (
      let current = Ast.attr r.Hcl.Config.rbody attr in
      let replaceable =
        match current with
        | None -> true
        | Some e -> Ast.is_literal e
      in
      if not replaceable then None
      else
        match Hcl.Codec.value_to_expr value with
        | expr ->
            let attrs =
              List.filter
                (fun (a : Ast.attribute) -> a.Ast.aname <> attr)
                r.Hcl.Config.rbody.Ast.attrs
              @ [ { Ast.aname = attr; avalue = expr; aspan = Hcl.Loc.dummy } ]
            in
            let resources =
              List.map
                (fun (r' : Hcl.Config.resource) ->
                  if
                    r'.Hcl.Config.rtype = addr.Addr.rtype
                    && r'.Hcl.Config.rname = addr.Addr.rname
                  then
                    { r' with Hcl.Config.rbody = { r'.Hcl.Config.rbody with Ast.attrs } }
                  else r')
                cfg.Hcl.Config.resources
            in
            Some { cfg with Hcl.Config.resources }
        | exception Hcl.Codec.Not_literal _ -> None)

(* a block name for an adopted resource that doesn't collide *)
let fresh_block_name (cfg : Hcl.Config.t) rtype base =
  let taken name = Hcl.Config.find_resource cfg rtype name <> None in
  if not (taken base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if taken candidate then go (i + 1) else candidate
    in
    go 2

(** Adopt an unmanaged cloud resource into the program and state. *)
let adopt_unmanaged (cloud : Cloud.t) ~(cfg : Hcl.Config.t) ~(state : State.t)
    ~cloud_id : outcome option =
  match Cloud.lookup cloud cloud_id with
  | None -> None
  | Some live ->
      let rtype = live.Cloud.rtype in
      let rname =
        fresh_block_name cfg rtype
          (String.map (function '-' -> '_' | c -> c) cloud_id)
      in
      let attrs = settable_attrs rtype (Cloud.attrs live) in
      let block_attrs =
        Smap.bindings attrs
        |> List.filter_map (fun (name, v) ->
               match Hcl.Codec.value_to_expr v with
               | e -> Some { Ast.aname = name; avalue = e; aspan = Hcl.Loc.dummy }
               | exception Hcl.Codec.Not_literal _ -> None)
      in
      let resource =
        {
          Hcl.Config.rtype;
          rname;
          rbody = { Ast.attrs = block_attrs; blocks = [] };
          rcount = None;
          rfor_each = None;
          rprovider = None;
          rdepends_on = [];
          rlifecycle = Hcl.Config.default_lifecycle;
          rspan = Hcl.Loc.dummy;
        }
      in
      let addr = Addr.make ~rtype ~rname () in
      let state =
        State.add state
          {
            State.addr;
            cloud_id;
            rtype;
            region = live.Cloud.region;
            recorded = State.Recorded.of_map (Cloud.attrs live);
            deps = [];
          }
      in
      Some
        {
          config =
            { cfg with Hcl.Config.resources = cfg.Hcl.Config.resources @ [ resource ] };
          state;
          description =
            Printf.sprintf "adopted unmanaged %s %s as %s.%s" rtype cloud_id
              rtype rname;
        }

(** Accept an out-of-band deletion: drop the resource from program and
    state. *)
let drop_deleted ~(cfg : Hcl.Config.t) ~(state : State.t) ~(addr : Addr.t) :
    outcome =
  let base = Addr.base addr in
  let resources =
    List.filter
      (fun (r : Hcl.Config.resource) ->
        not
          (r.Hcl.Config.rtype = base.Addr.rtype
          && r.Hcl.Config.rname = base.Addr.rname))
      cfg.Hcl.Config.resources
  in
  {
    config = { cfg with Hcl.Config.resources };
    state = State.remove state addr;
    description =
      Printf.sprintf "accepted out-of-band deletion of %s" (Addr.to_string addr);
  }

(** Process a batch of drift events with the regeneration policy:
    attribute drift folds into the program, unmanaged creates are
    adopted, deletions are reported for human decision (the destructive
    direction should not be automatic). *)
let regenerate (cloud : Cloud.t) ~(cfg : Hcl.Config.t) ~(state : State.t)
    (events : Drift.event list) : Hcl.Config.t * State.t * string list =
  List.fold_left
    (fun (cfg, state, log) (e : Drift.event) ->
      match e.Drift.kind with
      | Drift.Attr_drift { attr; actual; _ } -> (
          match e.Drift.addr with
          | Some addr -> (
              let state =
                match Cloud.lookup cloud e.Drift.cloud_id with
                | Some live -> State.update_attrs state addr (Cloud.attrs live)
                | None -> state
              in
              match
                update_config_attr cfg ~addr:(Addr.base addr) ~attr ~value:actual
              with
              | Some cfg' ->
                  ( cfg',
                    state,
                    Printf.sprintf "regenerated %s.%s in the program"
                      (Addr.to_string addr) attr
                    :: log )
              | None ->
                  ( cfg,
                    state,
                    Printf.sprintf
                      "NOTIFY: %s.%s drifted but is expression-derived; manual \
                       reconciliation needed"
                      (Addr.to_string addr) attr
                    :: log ))
          | None -> (cfg, state, log))
      | Drift.Unmanaged { cloud_id; _ } -> (
          match adopt_unmanaged cloud ~cfg ~state ~cloud_id with
          | Some o -> (o.config, o.state, o.description :: log)
          | None -> (cfg, state, log))
      | Drift.Deleted_oob ->
          ( cfg,
            state,
            Printf.sprintf "NOTIFY: %s deleted outside IaC (not auto-accepted)"
              (match e.Drift.addr with
              | Some a -> Addr.to_string a
              | None -> e.Drift.cloud_id)
            :: log ))
    (cfg, state, []) events
  |> fun (cfg, state, log) -> (cfg, state, List.rev log)
