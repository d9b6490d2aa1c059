(** Deployment planning: diff desired instances against recorded state
    and produce an executable, dependency-ordered change set (§2.1's
    "execution plan", §3.3's acceleration substrate).  {!exec_graph}
    orders the changes as one {!Dag.t}, the graph every apply walks.

    Replace decisions use the knowledge base's [force_new] attribute
    flags, mirroring Terraform's create-before-destroy/replace
    semantics. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Eval = Cloudless_hcl.Eval
module Smap = Value.Smap
module State = Cloudless_state.State
module Dag = Cloudless_graph.Dag
module Schema = Cloudless_schema

(** The environment a configuration expands in before it is planned
    against [state]: the simulated provider's data sources and
    [state]'s recorded attributes for computed references.  The data
    sources are [aws_region] and [azurerm_location] (both named
    [region], default ["us-east-1"]), [aws_availability_zones] (its
    [a]/[b]/[c] zones) and [aws_ami] (the latest image for its
    [name_filter], default ["linux"]). *)
let env_for ?(region = "us-east-1") state : Eval.env =
  let str s = Value.Vstring s in
  {
    Eval.default_env with
    data_resolver =
      (fun ~rtype ~name:_ ~args ->
        match rtype with
        | "aws_region" | "azurerm_location" ->
            Some (Smap.singleton "name" (str region))
        | "aws_ami" ->
            let flavor =
              match Smap.find_opt "name_filter" args with
              | Some v -> Value.to_string v
              | None -> "linux"
            in
            Some
              (Smap.of_list
                 [
                   ("id", str ("ami-" ^ flavor ^ "-latest"));
                   ("name", str flavor);
                 ])
        | "aws_availability_zones" ->
            let zone z = str (region ^ z) in
            Some
              (Smap.singleton "names"
                 (Value.Vlist (List.map zone [ "a"; "b"; "c" ])))
        | _ -> None);
    state_lookup = (fun addr -> State.lookup state addr);
  }

type attr_change = {
  attr : string;
  before : Value.t option;
  after : Value.t option;
}

type action =
  | Create
  | Update of attr_change list
  | Replace of { changes : attr_change list; reasons : string list }
  | Delete
  | Noop

let action_symbol = function
  | Create -> "+"
  | Update _ -> "~"
  | Replace _ -> "-/+"
  | Delete -> "-"
  | Noop -> " "

type change = {
  addr : Addr.t;
  rtype : string;
  region : string;
  action : action;
  desired : Value.t Smap.t option;  (** None for deletes *)
  prior : State.resource_state option;  (** None for creates *)
  deps : Addr.t list;  (** forward dependencies (for create/update) *)
  cbd : bool;
      (** lifecycle create_before_destroy: a Replace creates the new
          resource before deleting the old one *)
}

type t = {
  changes : change list;  (** stable order *)
  default_region : string;
}

let is_noop c = c.action = Noop

let actionable t = List.filter (fun c -> not (is_noop c)) t.changes

let count pred t = List.length (List.filter pred (actionable t))

type summary = {
  to_create : int;
  to_update : int;
  to_replace : int;
  to_delete : int;
  unchanged : int;
}

let summarize t =
  {
    to_create = count (fun c -> c.action = Create) t;
    to_update = count (fun c -> match c.action with Update _ -> true | _ -> false) t;
    to_replace =
      count (fun c -> match c.action with Replace _ -> true | _ -> false) t;
    to_delete = count (fun c -> c.action = Delete) t;
    unchanged = List.length (List.filter is_noop t.changes);
  }

let is_empty t = actionable t = []

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

let region_of_attrs ~default attrs =
  match Smap.find_opt "region" attrs with
  | Some (Value.Vstring r) -> r
  | _ -> (
      match Smap.find_opt "location" attrs with
      | Some (Value.Vstring r) -> r
      | _ -> default)

(* Compare desired config attrs with prior state attrs.  Only
   attributes the configuration sets participate; computed attributes
   and unknowns are skipped (an unknown desired value cannot prove a
   change). *)
let diff_attrs ~ignore_changes desired prior_attrs : attr_change list =
  Smap.fold
    (fun name dv acc ->
      if List.mem name ignore_changes then acc
      else if Value.has_unknown dv then acc
      else
        match Smap.find_opt name prior_attrs with
        | Some pv when Value.equal dv pv -> acc
        | Some pv -> { attr = name; before = Some pv; after = Some dv } :: acc
        | None -> { attr = name; before = None; after = Some dv } :: acc)
    desired []
  |> List.rev

let force_new_reasons rtype (changes : attr_change list) =
  match Schema.Catalog.find rtype with
  | None -> []
  | Some schema ->
      let force = Schema.Resource_schema.force_new_attrs schema in
      List.filter_map
        (fun c -> if List.mem c.attr force then Some c.attr else None)
        changes

(** Compute the plan for the full configuration.  An instance an
    expansion verified against its row ({!Eval.instance.verified}) is a
    no-op whose [desired] holds the configured attributes alone; the
    instances must be expanded against [state].  With a live [trace],
    planning runs in a ["plan"] span counting the diff it produced
    (creates/updates/replaces/deletes/noops).  A plan that would
    replace a resource whose lifecycle sets [prevent_destroy]
    (Terraform's guard against accidental destruction of critical
    infrastructure) raises a [plan/plan-blocked]
    {!Cloudless_error.Error} addressed to it and located at its block
    in the configuration. *)
let make ?(default_region = "us-east-1") ?(trace = Cloudless_obs.Trace.null)
    ~(state : State.t) (instances : Eval.instance list) : t =
  let module Trace = Cloudless_obs.Trace in
  Trace.with_span trace "plan" @@ fun () ->
  let desired_addrs = List.map (fun (i : Eval.instance) -> i.Eval.addr) instances in
  let forward =
    List.map
      (fun (i : Eval.instance) ->
        let addr = i.Eval.addr in
        let rtype = addr.Addr.rtype in
        let deps =
          List.sort_uniq Addr.compare (i.Eval.ref_deps @ i.Eval.explicit_deps)
        in
        let desired = i.Eval.attrs in
        let cbd = i.Eval.lifecycle.Cloudless_hcl.Config.create_before_destroy in
        match State.find_opt state addr with
        | None ->
            {
              addr;
              rtype;
              region = region_of_attrs ~default:default_region desired;
              action = Create;
              desired = Some desired;
              prior = None;
              deps;
              cbd;
            }
        | Some prior ->
            let ignore_changes = i.Eval.lifecycle.Cloudless_hcl.Config.ignore_changes in
            let changes =
              (* a verified instance's row records the configuration:
                 the diff is empty without reading the row *)
              if Option.is_some i.Eval.verified then []
              else diff_attrs ~ignore_changes desired (State.attrs prior)
            in
            let action =
              if changes = [] then Noop
              else
                match force_new_reasons rtype changes with
                | [] -> Update changes
                | reasons ->
                    if i.Eval.lifecycle.Cloudless_hcl.Config.prevent_destroy then
                      Cloudless_error.fail
                        ~stage:Cloudless_error.Diagnostic.Plan_stage
                        ~code:"plan-blocked" ~span:i.Eval.ispan ~addr
                        "replacement forced by %s, but lifecycle sets \
                         prevent_destroy"
                        (String.concat ", " reasons)
                    else Replace { changes; reasons }
            in
            {
              addr;
              rtype;
              region = prior.State.region;
              action;
              desired = Some desired;
              prior = Some prior;
              deps;
              cbd;
            })
      instances
  in
  let deletes =
    State.orphans state desired_addrs
    |> List.map (fun addr ->
           let prior = Option.get (State.find_opt state addr) in
           {
             addr;
             rtype = prior.State.rtype;
             region = prior.State.region;
             action = Delete;
             desired = None;
             prior = Some prior;
             deps = prior.State.deps;
             cbd = false;
           })
  in
  let changes = deletes @ forward in
  List.iter
    (fun c ->
      let key =
        match c.action with
        | Create -> "creates"
        | Update _ -> "updates"
        | Replace _ -> "replaces"
        | Delete -> "deletes"
        | Noop -> "noops"
      in
      Trace.count trace key 1)
    changes;
  Trace.count trace "changes" (List.length changes);
  { changes; default_region }

(* ------------------------------------------------------------------ *)
(* Execution graph                                                     *)
(* ------------------------------------------------------------------ *)

(** The execution graph over the actionable changes, in plan order (a
    change's id is its position):

    - create/update/replace nodes depend on the non-delete changes
      their dependencies name;
    - delete nodes run in reverse dependency order: a resource is
      deleted only after every delete that depended on it.

    A dependency names the change at its address, else every change of
    its base ({!Dag.build}).  The walker, the component splitter and
    the shards all run on this graph. *)
let exec_graph (t : t) : change Dag.t =
  let changes = Array.of_list (actionable t) in
  Dag.build
    ~addr:(fun c -> c.addr)
    ~edges:(fun ~resolve ~add id c ->
      List.iter
        (fun dep ->
          List.iter
            (fun d ->
              match (c.action, changes.(d).action) with
              | Delete, Delete ->
                  (* dependency d is deleted after dependent c *)
                  add ~dependent:d ~dependency:id
              | Delete, _ | _, Delete -> ()
              | _ -> add ~dependent:id ~dependency:d)
            (resolve dep))
        c.deps)
    changes

(* ------------------------------------------------------------------ *)
(* Incremental planning (§3.3)                                         *)
(* ------------------------------------------------------------------ *)

(** The plan's own §3.3 impact scope — the rows a scoped refresh
    re-reads: the plan's creates, updates and replaces, every change
    that transitively consumes one of them, and the direct
    dependencies of that set, limited to rows the state records
    (changes with a [prior]).  A dependency names a change when the
    addresses are equal, or when it carries no instance key and the
    change is an instance of its base.  Deletes neither seed the scope
    nor consume anything, so a delete-only plan has an empty scope.

    O(plan), with address sets no larger than the scope and no graph:
    plans list dependencies before their consumers, so the consumer
    pass normally runs twice, the second time only to confirm. *)
let refresh_scope (t : t) : Addr.Set.t =
  let members = ref [] in
  let addrs = ref Addr.Set.empty and bases = ref Addr.Set.empty in
  let join c =
    members := c :: !members;
    addrs := Addr.Set.add c.addr !addrs;
    bases := Addr.Set.add (Addr.base c.addr) !bases
  in
  let noops =
    List.filter
      (fun c ->
        match c.action with
        | Create | Update _ | Replace _ ->
            join c;
            false
        | Noop -> true
        | Delete -> false)
      t.changes
  in
  if !members = [] then Addr.Set.empty
  else begin
    let names_member d =
      if d.Addr.key = Addr.Knone then Addr.Set.mem d !bases
      else Addr.Set.mem d !addrs
    in
    let rec consumers pending =
      let joined = ref false in
      let pending =
        List.filter
          (fun c ->
            if List.exists names_member c.deps then begin
              join c;
              joined := true;
              false
            end
            else true)
          pending
      in
      if !joined then consumers pending
    in
    consumers noops;
    (* the members' direct dependencies, by exact address and by base *)
    let ctx = ref Addr.Set.empty and ctx_bases = ref Addr.Set.empty in
    List.iter
      (fun c ->
        List.iter
          (fun d ->
            if d.Addr.key = Addr.Knone then ctx_bases := Addr.Set.add d !ctx_bases
            else ctx := Addr.Set.add d !ctx)
          c.deps)
      !members;
    List.fold_left
      (fun acc c ->
        match (c.action, c.prior) with
        | Delete, _ | _, None -> acc
        | _, Some _ ->
            if
              Addr.Set.mem c.addr !addrs
              || Addr.Set.mem c.addr !ctx
              || Addr.Set.mem (Addr.base c.addr) !ctx_bases
            then Addr.Set.add c.addr acc
            else acc)
      Addr.Set.empty t.changes
  end

(** Restrict a plan to an address set (everything else forced to Noop).
    Used by the incremental engine after scoping. *)
let restrict (t : t) (keep : Addr.Set.t) : t =
  {
    t with
    changes =
      List.map
        (fun c ->
          if Addr.Set.mem c.addr keep then c else { c with action = Noop })
        t.changes;
  }

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

(** The seed's list-scan planners, kept in-tree (like the walker's
    [Sched_list] and [Dag.Reference]) so tests and E12 can assert the
    indexed implementations produce byte-identical plans and execution
    graphs. *)
module Reference = struct
  (* Per-dependency O(n) scan over the whole change list: each
     actionable change, in plan order, with the addresses it depends
     on.  Shares no code with {!Dag.build}, so it checks the builder's
     interning, sorting and dedup as well as {!exec_graph}'s rule. *)
  let execution_graph (t : t) : (Addr.t * Addr.Set.t) list =
    let changes = actionable t in
    let resolve dep =
      if List.exists (fun c -> Addr.equal c.addr dep) changes then [ dep ]
      else
        List.filter_map
          (fun c -> if Addr.same_base c.addr dep then Some c.addr else None)
          changes
    in
    let named = List.map (fun c -> (c, List.concat_map resolve c.deps)) changes in
    let is_delete a =
      (List.find (fun c -> Addr.equal c.addr a) changes).action = Delete
    in
    List.map
      (fun (c, names) ->
        let deps =
          if c.action = Delete then
            (* c is deleted after every delete that names it *)
            List.filter_map
              (fun (x, xnames) ->
                if x.action = Delete && List.exists (Addr.equal c.addr) xnames
                then Some x.addr
                else None)
              named
          else List.filter (fun a -> not (is_delete a)) names
        in
        (c.addr, Addr.Set.remove c.addr (Addr.Set.of_list deps)))
      named

  (* List-scan diff classification: the same verdicts as {!make} but
     with O(n) state lookup and orphan detection per resource, so the
     whole pass is O(n^2).  E12 checks the indexed plan's action list
     against this on capped sizes. *)
  let action_symbols ~(state : State.t) (instances : Eval.instance list) :
      (Addr.t * string) list =
    let resources = State.resources state in
    let find_prior addr =
      List.find_opt (fun r -> Addr.equal r.State.addr addr) resources
    in
    let forward =
      List.map
        (fun (i : Eval.instance) ->
          let addr = i.Eval.addr in
          match find_prior addr with
          | None -> (addr, action_symbol Create)
          | Some prior ->
              let ignore_changes =
                i.Eval.lifecycle.Cloudless_hcl.Config.ignore_changes
              in
              let changes =
                diff_attrs ~ignore_changes i.Eval.attrs (State.attrs prior)
              in
              let action =
                if changes = [] then Noop
                else
                  match force_new_reasons addr.Addr.rtype changes with
                  | [] -> Update changes
                  | reasons -> Replace { changes; reasons }
              in
              (addr, action_symbol action))
        instances
    in
    let deletes =
      List.filter
        (fun (r : State.resource_state) ->
          not
            (List.exists
               (fun (i : Eval.instance) -> Addr.equal i.Eval.addr r.State.addr)
               instances))
        resources
      |> List.map (fun (r : State.resource_state) ->
             (r.State.addr, action_symbol Delete))
    in
    deletes @ forward
end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_change ppf c =
  match c.action with
  | Noop -> ()
  | Create -> Fmt.pf ppf "  + %s@." (Addr.to_string c.addr)
  | Delete -> Fmt.pf ppf "  - %s@." (Addr.to_string c.addr)
  | Update changes ->
      Fmt.pf ppf "  ~ %s@." (Addr.to_string c.addr);
      List.iter
        (fun ch ->
          Fmt.pf ppf "      %s: %s -> %s@." ch.attr
            (match ch.before with Some v -> Value.show v | None -> "(none)")
            (match ch.after with Some v -> Value.show v | None -> "(none)"))
        changes
  | Replace { reasons; _ } ->
      Fmt.pf ppf "  -/+ %s (forces replacement: %s)@." (Addr.to_string c.addr)
        (String.concat ", " reasons)

let pp ppf t =
  let s = summarize t in
  List.iter (pp_change ppf) t.changes;
  Fmt.pf ppf "Plan: %d to add, %d to change, %d to replace, %d to destroy.@."
    s.to_create s.to_update s.to_replace s.to_delete

let to_string t = Fmt.str "%a" pp t
