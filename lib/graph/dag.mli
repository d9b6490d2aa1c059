(** Resource dependency DAG (§2.1, §3.3).

    Nodes are resource instances (or plan changes) addressed by
    {!Cloudless_hcl.Addr.t}; edges point from a node to the nodes it
    depends on.  A graph is built once, by {!build}, and never changes:
    node ids are positions in the node array, and each adjacency row
    lists ids in ascending-address order.  Supports stable topological
    order, parallel levels, critical-path analysis under a duration
    model, and impact-scope slicing. *)

module Addr := Cloudless_hcl.Addr

type 'a t

(** [build ~addr ~edges nodes]: one node per element of [nodes], id =
    array index.  [edges ~resolve ~add id node] is called once per
    node, in order, to record its edges:

    - [resolve dep] is the ids [dep] denotes: the node at that address,
      else every node of its base, ascending;
    - [add ~dependent ~dependency] records that [dependent] needs
      [dependency] first.  Duplicates and self-edges are dropped.

    Raises {!Cloudless_error.Error} (internal) on a duplicate node
    address. *)
val build :
  addr:('a -> Addr.t) ->
  edges:
    (resolve:(Addr.t -> int list) ->
    add:(dependent:int -> dependency:int -> unit) ->
    int ->
    'a ->
    unit) ->
  'a array ->
  'a t

(** A graph from explicit nodes and [(dependent, dependency)] edges,
    for tests; raises {!Cloudless_error.Error} (internal) on a duplicate
    node or an endpoint that is not a node. *)
val of_edges : (Addr.t * 'a) list -> (Addr.t * Addr.t) list -> 'a t

(** One node per expanded instance; edges from reference and
    [depends_on] dependencies, resolved as in {!build}. *)
val of_instances :
  Cloudless_hcl.Eval.instance list -> Cloudless_hcl.Eval.instance t

val size : 'a t -> int

(** Node addresses in node order. *)
val nodes : 'a t -> Addr.t list

(** The flat form, indexed by id and shared with the graph (callers
    must not mutate it): payloads, dependency rows and dependent rows,
    each row in ascending-address order. *)
val payloads : 'a t -> 'a array

val deps : 'a t -> int array array
val rdeps : 'a t -> int array array
val deps_of : 'a t -> Addr.t -> Addr.Set.t

(** Compute (once per graph) the Kahn rounds every analysis below
    reads.  A cycle raises a [plan/dependency-cycle]
    {!Cloudless_error.Error} whose message names every blocked node, in
    node order, and whose address is the first of them. *)
val check_acyclic : 'a t -> unit

(** Stable topological order (node order among independents); a cycle
    raises as in {!check_acyclic}. *)
val topo_sort : 'a t -> Addr.t list

(** Kahn rounds into caller-supplied arrays:
    [order.(offsets.(k)) .. order.(offsets.(k+1)-1)] is round k of node
    ids, ascending within a round; returns the round count, with
    [offsets.(rounds)] = [size t].  Requires [Array.length order >=
    size t] and [Array.length offsets >= size t + 1].  A cycle raises as
    in {!check_acyclic}. *)
val rounds_into : 'a t -> order:int array -> offsets:int array -> int

(** Parallel levels: level 0 has no dependencies, level k depends only
    on earlier levels. *)
val levels : 'a t -> Addr.t list list

val depth : 'a t -> int

(** Longest dependency chain under the duration model: the inherent
    lower bound on deployment makespan.  Returns (total duration,
    path). *)
val critical_path : 'a t -> duration:('a -> float) -> float * Addr.t list

(** Remaining-longest-path priority per node id (higher = more
    critical); what the cloudless scheduler orders the ready set by. *)
val priorities : 'a t -> duration:('a -> float) -> float array

(** §3.3 impact scope: every node that transitively depends on a seed,
    the seeds included, plus the direct dependencies of that set
    (re-evaluation context).  A seed resolves as a dependency does in
    {!build}. *)
val impact_scope : 'a t -> Addr.t list -> Addr.Set.t

(** The seed's list-based traversals, kept in-tree (like the walker's
    [Sched_list]) so tests and benches can assert the Kahn
    implementation produces byte-identical orders and levels. *)
module Reference : sig
  (** The cons-cell Kahn rounds (per-round int lists + [List.sort]);
      oracle for {!rounds_into}'s round structure. *)
  val rounds : 'a t -> Addr.t list list

  (** Per-round [List.partition] scan: O(depth * V). *)
  val topo_sort : 'a t -> Addr.t list

  (** Per-level [List.filter] over the full order: O(depth * V). *)
  val levels : 'a t -> Addr.t list list

  (** Seeds resolved by a scan over every node, dependents by a
      fixpoint over the dependency sets: O(V * depth). *)
  val impact_scope : 'a t -> Addr.t list -> Addr.Set.t
end

(** Graphviz rendering. *)
val to_dot : ?name:string -> 'a t -> string
