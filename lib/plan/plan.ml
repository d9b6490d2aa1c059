(** Deployment planning: diff desired instances against recorded state
    and produce an executable, dependency-ordered change set (§2.1's
    "execution plan", §3.3's acceleration substrate).

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

exception Prevented of Addr.t * string
(** Raised by {!make} when the plan would destroy or replace a resource
    whose lifecycle sets [prevent_destroy] — Terraform's guard against
    accidental destruction of critical infrastructure. *)

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

(** Compute the plan for the full configuration.  With a live [trace],
    planning runs in a ["plan"] span counting the diff it produced
    (creates/updates/replaces/deletes/noops). *)
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
        let region = region_of_attrs ~default:default_region desired in
        let cbd = i.Eval.lifecycle.Cloudless_hcl.Config.create_before_destroy in
        match State.find_opt state addr with
        | None ->
            {
              addr;
              rtype;
              region;
              action = Create;
              desired = Some desired;
              prior = None;
              deps;
              cbd;
            }
        | Some prior ->
            let ignore_changes = i.Eval.lifecycle.Cloudless_hcl.Config.ignore_changes in
            let changes =
              diff_attrs ~ignore_changes desired prior.State.attrs
            in
            let action =
              if changes = [] then Noop
              else
                match force_new_reasons rtype changes with
                | [] -> Update changes
                | reasons ->
                    if i.Eval.lifecycle.Cloudless_hcl.Config.prevent_destroy then
                      raise
                        (Prevented
                           ( addr,
                             Printf.sprintf
                               "replacement forced by %s, but lifecycle sets \
                                prevent_destroy"
                               (String.concat ", " reasons) ))
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

(* Edge construction shared by the indexed and reference builders;
   [resolve] maps a recorded dependency to the plan addresses it
   denotes. *)
let graph_of_changes (changes : change list) ~(resolve : Addr.t -> Addr.t list)
    : change Dag.t =
  let dag =
    List.fold_left (fun acc c -> Dag.add_node acc c.addr c) Dag.empty changes
  in
  let dag =
    List.fold_left
      (fun acc c ->
        match c.action with
        | Delete -> acc
        | Create | Update _ | Replace _ | Noop ->
            List.fold_left
              (fun acc dep ->
                List.fold_left
                  (fun acc d ->
                    (* only depend on other non-delete changes *)
                    match Dag.find_opt acc d with
                    | Some { action = Delete; _ } -> acc
                    | Some _ when not (Addr.equal d c.addr) ->
                        Dag.add_edge acc ~dependent:c.addr ~dependency:d
                    | _ -> acc)
                  acc (resolve dep))
              acc c.deps)
      dag changes
  in
  (* reverse edges among deletes *)
  let delete_changes = List.filter (fun c -> c.action = Delete) changes in
  let dag =
    List.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc dep ->
            List.fold_left
              (fun acc d ->
                match Dag.find_opt acc d with
                | Some { action = Delete; _ } when not (Addr.equal d c.addr) ->
                    (* dependency d is deleted after dependent c *)
                    Dag.add_edge acc ~dependent:d ~dependency:c.addr
                | _ -> acc)
              acc (resolve dep))
          acc c.deps)
      dag delete_changes
  in
  dag

(** Build the execution DAG over actionable changes.

    - create/update/replace nodes depend on their forward dependencies
      (when those are also in the plan);
    - delete nodes run in reverse dependency order: a resource is
      deleted only after everything that depended on it is deleted;
    - deletes of an address precede a create of the same address (not
      applicable to Replace, which is atomic here). *)
let execution_graph (t : t) : change Dag.t =
  let changes = actionable t in
  let in_plan = Addr.Set.of_list (List.map (fun c -> c.addr) changes) in
  (* base -> plan addresses sharing it, in plan order, so resolving a
     base-granularity dep is a map lookup instead of a scan over the
     whole change list *)
  let by_base =
    List.fold_left
      (fun acc c ->
        let b = Addr.base c.addr in
        let prev = Option.value ~default:[] (Addr.Map.find_opt b acc) in
        Addr.Map.add b (c.addr :: prev) acc)
      Addr.Map.empty changes
    |> Addr.Map.map List.rev
  in
  let resolve dep =
    (* a dep may be recorded at instance granularity already; fall back
       to matching all instances sharing the base *)
    if Addr.Set.mem dep in_plan then [ dep ]
    else
      match Addr.Map.find_opt (Addr.base dep) by_base with
      | Some addrs -> addrs
      | None -> []
  in
  graph_of_changes changes ~resolve

(* ------------------------------------------------------------------ *)
(* Flat execution graph (interned hot path)                            *)
(* ------------------------------------------------------------------ *)

(* Growable int vector for edge collection — the edge count is unknown
   up front and a pair list would cost ~6 words per edge at 1M scale. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create capacity = { a = Array.make (max 1 capacity) 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * Array.length v.a) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

type exec_graph = {
  xintern : Cloudless_graph.Intern.t;
      (** id = index of the change in [xchanges] *)
  xchanges : change array;  (** actionable changes, plan order *)
  xdeps : int array array;
      (** per node: dependency ids, ascending-address order, dedup'd —
          the exact order/multiplicity {!execution_graph}'s
          [Addr.Set]s expose *)
  xrdeps : int array array;  (** reverse adjacency, same discipline *)
}

let exec_size xg = Array.length xg.xchanges

(** Flat-array equivalent of {!execution_graph}: same nodes (actionable
    changes, plan order), same edge set, adjacency frozen into int
    arrays sorted in ascending-address order so scans over it visit
    neighbours exactly as [Addr.Set.iter] would — the executor's
    ready-set push order (and therefore scheduling tie-breaks) must
    not change.  The executor and the domain sharder run on this; the
    [Dag]-returning {!execution_graph} stays for analyses and as the
    equivalence oracle. *)
let exec_graph (t : t) : exec_graph =
  let changes = Array.of_list (actionable t) in
  let n = Array.length changes in
  let intern = Cloudless_graph.Intern.create ~capacity:(max 1 n) () in
  Array.iter (fun c -> ignore (Cloudless_graph.Intern.intern intern c.addr)) changes;
  (* duplicate plan addresses would desynchronize ids from array
     indices; [make] never produces them (orphans are disjoint from
     desired addresses) *)
  if Cloudless_graph.Intern.length intern <> n then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"duplicate-change" "Plan.exec_graph: duplicate change addresses";
  (* lazy: deps recorded at instance granularity (the common case —
     references bind to concrete instances) resolve through the intern
     table alone, so most plans never pay for the base index *)
  let by_base =
    lazy
      (let tbl = Hashtbl.create (2 * n) in
       for id = n - 1 downto 0 do
         (* downward so each bucket ends up in ascending plan order *)
         let b = Addr.base changes.(id).addr in
         let prev = Option.value ~default:[] (Hashtbl.find_opt tbl b) in
         Hashtbl.replace tbl b (id :: prev)
       done;
       tbl)
  in
  let resolve dep =
    match Cloudless_graph.Intern.find_opt intern dep with
    | Some id -> [ id ]
    | None ->
        Option.value ~default:[]
          (Hashtbl.find_opt (Lazy.force by_base) (Addr.base dep))
  in
  let e_dependent = Ivec.create (2 * n) and e_dependency = Ivec.create (2 * n) in
  let add_edge ~dependent ~dependency =
    if dependent <> dependency then begin
      Ivec.push e_dependent dependent;
      Ivec.push e_dependency dependency
    end
  in
  Array.iteri
    (fun id c ->
      match c.action with
      | Delete ->
          (* reverse edges among deletes: dependency d is deleted after
             dependent c *)
          List.iter
            (fun dep ->
              List.iter
                (fun d ->
                  if changes.(d).action = Delete then
                    add_edge ~dependent:d ~dependency:id)
                (resolve dep))
            c.deps
      | Create | Update _ | Replace _ | Noop ->
          List.iter
            (fun dep ->
              List.iter
                (fun d ->
                  (* only depend on other non-delete changes *)
                  if changes.(d).action <> Delete then
                    add_edge ~dependent:id ~dependency:d)
                (resolve dep))
            c.deps)
    changes;
  (* rank: position of each id's address in ascending-address order,
     so sorting an adjacency row by rank reproduces [Addr.Set.iter];
     [by_addr] is the inverse permutation (rank -> id) *)
  let rank = Array.make n 0 in
  let by_addr = Array.init n (fun id -> id) in
  (* stable_sort (mergesort, ~n log n comparisons) over sort (heapsort,
     ~2n log n): the [Addr.compare] calls are the whole cost of this
     pass at 1M nodes, so halving them matters; stability is moot
     (addresses are distinct) *)
  Array.stable_sort
    (fun a b -> Addr.compare changes.(a).addr changes.(b).addr)
    by_addr;
  Array.iteri (fun pos id -> rank.(id) <- pos) by_addr;
  let freeze ~src ~dst =
    let cnt = Array.make n 0 in
    for k = 0 to src.Ivec.n - 1 do
      let s = src.Ivec.a.(k) in
      cnt.(s) <- cnt.(s) + 1
    done;
    let rows = Array.init n (fun id -> Array.make cnt.(id) 0) in
    let fill = Array.make n 0 in
    for k = 0 to src.Ivec.n - 1 do
      let s = src.Ivec.a.(k) in
      rows.(s).(fill.(s)) <- dst.Ivec.a.(k);
      fill.(s) <- fill.(s) + 1
    done;
    (* sort each row by address via rank space: map ids to their ranks,
       heapsort the plain ints (no comparator closure, no [rank]
       indirection per comparison), dedup (ranks are unique per id so
       duplicates are adjacent and exact), then map back through the
       inverse permutation *)
    Array.map
      (fun row ->
        let m = Array.length row in
        for r = 0 to m - 1 do
          row.(r) <- rank.(row.(r))
        done;
        Dag.sort_slice row 0 m;
        let row =
          if m <= 1 then row
          else begin
            let w = ref 1 in
            for r = 1 to m - 1 do
              if row.(r) <> row.(!w - 1) then begin
                row.(!w) <- row.(r);
                incr w
              end
            done;
            if !w = m then row else Array.sub row 0 !w
          end
        in
        for r = 0 to Array.length row - 1 do
          row.(r) <- by_addr.(row.(r))
        done;
        row)
      rows
  in
  let xdeps = freeze ~src:e_dependent ~dst:e_dependency in
  let xrdeps = freeze ~src:e_dependency ~dst:e_dependent in
  { xintern = intern; xchanges = changes; xdeps; xrdeps }

(** Kahn rounds over the flat graph into caller-supplied scratch via
    {!Dag.rounds_kernel}: [order.(offsets.(k)) ..
    order.(offsets.(k+1)-1)] is round k (ids ascending inside each
    round = plan order, matching [Dag.levels] on {!execution_graph});
    returns the round count.  Requires [Array.length order >= exec_size
    xg] and [Array.length offsets >= exec_size xg + 1].  Raises
    [Dag.Cycle] with the blocked addresses. *)
let exec_rounds_into (xg : exec_graph) ~order ~offsets =
  let n = exec_size xg in
  let indeg = Array.map Array.length xg.xdeps in
  let rounds = Dag.rounds_kernel ~rdeps:xg.xrdeps ~indeg ~order ~offsets in
  if offsets.(rounds) < n then begin
    let blocked = ref [] in
    for id = n - 1 downto 0 do
      if indeg.(id) > 0 then blocked := xg.xchanges.(id).addr :: !blocked
    done;
    raise (Dag.Cycle !blocked)
  end;
  rounds

(** List view of {!exec_rounds_into} (allocates its own scratch). *)
let exec_rounds (xg : exec_graph) : int list list =
  let n = exec_size xg in
  let order = Array.make (max 1 n) 0 in
  let offsets = Array.make (n + 1) 0 in
  let rounds = exec_rounds_into xg ~order ~offsets in
  List.init rounds (fun k ->
      Array.to_list (Array.sub order offsets.(k) (offsets.(k + 1) - offsets.(k))))

(* ------------------------------------------------------------------ *)
(* Incremental planning (§3.3)                                         *)
(* ------------------------------------------------------------------ *)

(** Given the previous full graph and the set of directly-edited
    resource addresses, the impact scope is the only part of the
    configuration whose plan can change.  Returns the scoped address
    set; the engine then refreshes and replans just those. *)
let impact_scope ~(graph : 'a Dag.t) ~(edited : Addr.t list) : Addr.Set.t =
  (* built on first base-granularity edit only: most edits name exact
     instances and never pay for the index *)
  let by_base =
    lazy
      (List.fold_left
         (fun acc node ->
           let b = Addr.base node in
           let prev =
             Option.value ~default:Addr.Set.empty (Addr.Map.find_opt b acc)
           in
           Addr.Map.add b (Addr.Set.add node prev) acc)
         Addr.Map.empty (Dag.nodes graph))
  in
  let seeds =
    List.fold_left
      (fun acc a ->
        if Dag.mem graph a then Addr.Set.add a acc
        else
          (* edited base address: include all its instances *)
          match Addr.Map.find_opt (Addr.base a) (Lazy.force by_base) with
          | Some insts -> Addr.Set.union insts acc
          | None -> acc)
      Addr.Set.empty edited
  in
  Dag.impact_scope graph seeds

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

(** The seed's list-scan planners, kept in-tree (like the executor's
    [Sched_list] and [Dag.Reference]) so tests and E12 can assert the
    indexed implementations produce byte-identical plans and scopes. *)
module Reference = struct
  (* Per-dependency O(n) scan over the whole change list. *)
  let execution_graph (t : t) : change Dag.t =
    let changes = actionable t in
    let resolve dep =
      if List.exists (fun c -> Addr.equal c.addr dep) changes then [ dep ]
      else
        List.filter_map
          (fun c -> if Addr.same_base c.addr dep then Some c.addr else None)
          changes
    in
    graph_of_changes changes ~resolve

  (* Per-edited-base O(V) scan over all graph nodes. *)
  let impact_scope ~(graph : 'a Dag.t) ~(edited : Addr.t list) : Addr.Set.t =
    let seeds =
      List.fold_left
        (fun acc a ->
          if Dag.mem graph a then Addr.Set.add a acc
          else
            List.fold_left
              (fun acc node ->
                if Addr.same_base node a then Addr.Set.add node acc else acc)
              acc (Dag.nodes graph))
        Addr.Set.empty edited
    in
    Dag.impact_scope graph seeds

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
                diff_attrs ~ignore_changes i.Eval.attrs prior.State.attrs
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
