(** Domain-parallel apply over the disjoint components of a plan.

    A plan's execution graph often splits into weakly-connected
    components — independent fleets, tenants, or stacks with no
    dependency path between them.  Nothing one component does can be
    observed by another (no edges, no shared addresses), so each can
    be applied in its own hermetic simulation and the results merged
    after the fact.  That is what this module does:

    1. find the weakly-connected components of [Plan.exec_graph]
       (union-find over the flat adjacency, O(E α));
    2. cut the plan into one sub-plan per component (changes keep
       their plan order);
    3. run a full {!Executor.apply} per component, each against its
       own fresh cloud from [make_cloud], distributing components over
       [domains] OCaml 5 domains via an atomic work counter;
    4. merge deterministically.

    {b Determinism.}  The merge depends only on the per-component
    results, never on which domain ran a component or in what order
    they finished: part reports are collected into a slot array
    indexed by component id, applied/failed/skipped lists concatenate
    in component order, the makespan is the max over components (all
    part clouds start at simulated time 0), counters are sums, and
    state rows are folded component by component.  Hence the output is
    byte-identical for any [domains] value — E16 asserts this across
    [--domains {1,2,4}] — and [domains = 1] runs the exact same
    decomposition sequentially.

    {b Scope.}  Parts run journal-free (a write-ahead journal is a
    single ordered stream; splitting it would serialize the domains
    again) and with refresh forced off; crash injection is likewise
    unsupported.  Each part talks to its own simulated cloud, so
    cloud ids are unique within a part but may repeat across parts —
    fine for disjoint fleets, which never cross-reference. *)

module Addr = Cloudless_hcl.Addr
module State = Cloudless_state.State
module Cloud = Cloudless_sim.Cloud
module Plan = Cloudless_plan.Plan
module Dag = Cloudless_graph.Dag

type part = {
  component : int;  (** component id (ascending first-change order) *)
  nodes : int;  (** actionable changes in this component *)
  report : Executor.report;
}

type report = {
  domains : int;
      (** effective worker-pool width: the requested count (0 = size to
          the machine) capped at [min components cores] — extra domains
          past either bound could never hold work *)
  cores : int;  (** [Domain.recommended_domain_count] at run time *)
  parts : part list;  (** component order *)
  makespan : float;  (** max over parts (each starts at sim time 0) *)
  applied : Addr.t list;  (** concatenated in component order *)
  failed : Executor.failure list;
  skipped : Addr.t list;
  api_calls : int;
  retries : int;
  throttled : int;
  sched_picks : int;
  sched_time : float;
  peak_ready : int;  (** max over parts *)
  state : State.t;  (** input state updated with every part's outcome *)
  wall_s : float;  (** real seconds for the whole split apply *)
}

let succeeded r = r.failed = [] && r.skipped = []

(** Weakly-connected components of the execution graph: returns
    [(comp, count)] where [comp.(id)] is the component of change [id].
    Components are numbered by their smallest member id, ascending, so
    the numbering is independent of traversal order. *)
let components (g : 'a Dag.t) : int array * int =
  let n = Dag.size g in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      (* smaller root wins, so a root is its component's smallest id *)
      if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  Array.iteri (fun id deps -> Array.iter (fun d -> union id d) deps) (Dag.deps g);
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for id = 0 to n - 1 do
    let r = find id in
    if comp.(r) = -1 then begin
      comp.(r) <- !count;
      incr count
    end;
    comp.(id) <- comp.(r)
  done;
  (comp, !count)

(* Run [jobs] on [domains] domains pulling indices from an atomic
   counter; results land in a slot array indexed by job, so completion
   order never leaks into the output.  A job's exception is re-raised
   on the calling domain after every worker has drained. *)
let run_jobs ~domains (jobs : (unit -> 'a) array) : 'a array =
  let n = Array.length jobs in
  let results : ('a, exn) result option array = Array.make n None in
  let run i =
    results.(i) <-
      Some (match jobs.(i) () with r -> Ok r | exception e -> Error e)
  in
  if domains <= 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run i;
          loop ()
        end
      in
      loop ()
    in
    let helpers =
      List.init (min (domains - 1) (max 0 (n - 1))) (fun _ ->
          Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers
  end;
  Array.map
    (function
      | Some (Ok r) -> r
      | Some (Error e) -> raise e
      | None -> assert false)
    results

(** Apply [plan] split by weakly-connected component, [domains]-wide
    ([0] = size the pool to the machine).  The pool is capped at
    [min components cores]: a domain per component is the most
    parallelism the decomposition exposes, and domains beyond the core
    count only add scheduler pressure.  [make_cloud c] must build a
    fresh, independent cloud for component [c] — parts never share a
    simulation.  [config.refresh] is forced to [Refresh_none] and
    journaling/crash injection are unavailable (see the module doc).
    The result is byte-identical for any [domains] value. *)
let apply ~(make_cloud : int -> Cloud.t) ?(domains = 1)
    ~(config : Executor.config) ~(state : State.t) ~(plan : Plan.t)
    ?(seed = 7) ?(sched = Executor.Sched_heap) () : report =
  let wall0 = Unix.gettimeofday () in
  (* Touch the schema catalog before spawning: its registry hashtable
     is populated by a module initializer and read-only afterwards, so
     forcing it here keeps the domains strictly read-side. *)
  ignore (Cloudless_schema.Catalog.find "aws_instance");
  let config = { config with Executor.refresh = Executor.Refresh_none } in
  let g = Plan.exec_graph plan in
  let changes = Dag.payloads g in
  let n = Array.length changes in
  let comp, ncomp = components g in
  let cores = Domain.recommended_domain_count () in
  let domains =
    let requested = if domains <= 0 then cores else domains in
    max 1 (min requested (min (max 1 ncomp) cores))
  in
  (* cut the actionable changes into per-component sub-plans, keeping
     plan order inside each *)
  let buckets = Array.make ncomp [] in
  for id = n - 1 downto 0 do
    buckets.(comp.(id)) <- changes.(id) :: buckets.(comp.(id))
  done;
  let jobs =
    Array.init ncomp (fun c () ->
        let sub =
          { Plan.changes = buckets.(c); default_region = plan.Plan.default_region }
        in
        let cloud = make_cloud c in
        Executor.apply cloud ~config ~state ~plan:sub ~seed ~sched ())
  in
  let reports = run_jobs ~domains jobs in
  let parts =
    List.init ncomp (fun c ->
        { component = c; nodes = List.length buckets.(c); report = reports.(c) })
  in
  (* deterministic merge: component order only *)
  let merged_state =
    Array.to_list reports
    |> List.mapi (fun c r -> (c, r))
    |> List.fold_left
         (fun st (c, (r : Executor.report)) ->
           List.fold_left
             (fun st (ch : Plan.change) ->
               match State.find_opt r.Executor.state ch.Plan.addr with
               | Some row -> State.add st row
               | None -> State.remove st ch.Plan.addr)
             st buckets.(c))
         state
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
  let maxf f = Array.fold_left (fun acc r -> Float.max acc (f r)) 0. reports in
  {
    domains;
    cores;
    parts;
    makespan = maxf (fun r -> r.Executor.makespan);
    applied =
      List.concat_map (fun p -> p.report.Executor.applied) parts;
    failed = List.concat_map (fun p -> p.report.Executor.failed) parts;
    skipped = List.concat_map (fun p -> p.report.Executor.skipped) parts;
    api_calls = sum (fun r -> r.Executor.api_calls);
    retries = sum (fun r -> r.Executor.retries);
    throttled = sum (fun r -> r.Executor.throttled);
    sched_picks = sum (fun r -> r.Executor.sched_picks);
    sched_time =
      Array.fold_left (fun acc r -> acc +. r.Executor.sched_time) 0. reports;
    peak_ready =
      Array.fold_left (fun acc r -> max acc r.Executor.peak_ready) 0 reports;
    state = merged_state;
    wall_s = Unix.gettimeofday () -. wall0;
  }
