(** Domain-parallel apply over the disjoint components of a plan.

    A plan's execution graph often splits into weakly-connected
    components — independent fleets, tenants, or stacks with no
    dependency path between them.  Each component is cut into its own
    sub-plan, applied against its own hermetic cloud on a pool of
    OCaml 5 domains, and the results are merged deterministically: the
    output is byte-identical for any domain count (E16 asserts this).

    Parts run journal-free (a write-ahead journal is a single ordered
    stream; splitting it would serialize the domains again) and with
    refresh forced off; crash injection is likewise unsupported. *)

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

val succeeded : report -> bool

(** Weakly-connected components of the execution graph: returns
    [(comp, count)] where [comp.(id)] is the component of change [id].
    Components are numbered by their smallest member id, ascending, so
    the numbering is independent of traversal order. *)
val components : 'a Dag.t -> int array * int

(** Apply [plan] split by weakly-connected component, [domains]-wide
    ([0] = size the pool to the machine).  The pool is capped at
    [min components cores]: a domain per component is the most
    parallelism the decomposition exposes, and domains beyond the core
    count only add scheduler pressure.  [make_cloud c] must build a
    fresh, independent cloud for component [c] — parts never share a
    simulation.  [config.refresh] is forced to [Refresh_none] and
    journaling/crash injection are unavailable (see the module doc).
    The result is byte-identical for any [domains] value. *)
val apply :
  make_cloud:(int -> Cloud.t) ->
  ?domains:int ->
  config:Executor.config ->
  state:State.t ->
  plan:Plan.t ->
  ?seed:int ->
  ?sched:Executor.scheduler ->
  unit ->
  report
