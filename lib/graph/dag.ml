(** Resource dependency DAG.

    The central data structure of IaC planning (§2.1): nodes are
    resource instances (or plan changes) addressed by
    {!Cloudless_hcl.Addr.t}, edges point from a node to the nodes it
    depends on.  Supports the analyses §3.3 calls for: stable
    topological order, parallel levels, critical-path extraction under
    a duration model, and impact-scope slicing for incremental
    updates. *)

module Addr = Cloudless_hcl.Addr

(* The Kahn rounds in flat form: [order] is the full topological
   order, [order.(offsets.(k)) .. order.(offsets.(k+1)-1)] is round k
   (ascending ids = node order within the round). *)
type sched = { order : int array; offsets : int array; rounds : int }

(* Node ids are positions in [nodes], minted by one {!Intern} table,
   and every adjacency row is in ascending-address order (the order
   [Addr.Set.iter] walks), so the traversals below run on array reads
   and visit neighbours exactly as a set-based graph would: the
   walker's ready-set push order and the critical path's predecessor
   choice depend on it. *)
type 'a t = {
  intern : Intern.t;
  nodes : 'a array;
  deps : int array array;  (** node -> nodes it depends on *)
  rdeps : int array array;  (** node -> nodes depending on it *)
  mutable sched : sched option;  (** memoized Kahn rounds *)
}

(* A [plan/dependency-cycle] naming every blocked node, in node
   order, and addressed to the first. *)
let cycle blocked =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Plan_stage
    ~code:"dependency-cycle"
    ?addr:(match blocked with a :: _ -> Some a | [] -> None)
    "dependency cycle between: %s"
    (String.concat ", " (List.map Addr.to_string blocked))

let size t = Array.length t.nodes
let addr t id = Intern.addr t.intern id
let nodes t = List.init (size t) (addr t)
let payloads t = t.nodes
let deps t = t.deps
let rdeps t = t.rdeps

let addr_set t row =
  Array.fold_left (fun s id -> Addr.Set.add (addr t id) s) Addr.Set.empty row

let deps_of t a =
  match Intern.find_opt t.intern a with
  | Some id -> addr_set t t.deps.(id)
  | None -> Addr.Set.empty

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* In-place ascending heapsort of [a.(lo) .. a.(lo+len-1)]: no
   comparator closure, and allocation-free at any width (a 1M-wide
   fleet round would make insertion sort quadratic and [List.sort] cons
   a copy).  The ints sorted are distinct, so instability is moot. *)
let sort_slice a lo len =
  if len > 1 then begin
    (* max-heap sift-down of [root] within the first [len'] slots *)
    let sift root len' =
      let r = ref root in
      let live = ref true in
      while !live do
        let l = (2 * !r) + 1 in
        if l >= len' then live := false
        else begin
          let c =
            if l + 1 < len' && a.(lo + l + 1) > a.(lo + l) then l + 1 else l
          in
          if a.(lo + c) > a.(lo + !r) then begin
            let tmp = a.(lo + c) in
            a.(lo + c) <- a.(lo + !r);
            a.(lo + !r) <- tmp;
            r := c
          end
          else live := false
        end
      done
    in
    for i = (len / 2) - 1 downto 0 do
      sift i len
    done;
    for last = len - 1 downto 1 do
      let tmp = a.(lo) in
      a.(lo) <- a.(lo + last);
      a.(lo + last) <- tmp;
      sift 0 last
    done
  end

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

(* The ids a dependency address denotes: the node at that address,
   else every node of its base, ascending.  Dependencies recorded at
   instance granularity (the common case) resolve through the intern
   table alone, so the base index is built on the first miss only. *)
let resolver intern =
  let by_base =
    lazy
      (let n = Intern.length intern in
       let tbl = Hashtbl.create (2 * n) in
       for id = n - 1 downto 0 do
         (* downward so each bucket ends up ascending *)
         let b = Addr.base (Intern.addr intern id) in
         let prev = Option.value ~default:[] (Hashtbl.find_opt tbl b) in
         Hashtbl.replace tbl b (id :: prev)
       done;
       tbl)
  in
  fun dep ->
    match Intern.find_opt intern dep with
    | Some id -> [ id ]
    | None ->
        Option.value ~default:[]
          (Hashtbl.find_opt (Lazy.force by_base) (Addr.base dep))

(* The constructors' shared part: intern [addrs] (ids must be array
   indices), let [link] record edges through [add], then freeze each
   endpoint list into rows sorted by address. *)
let make addrs nodes link =
  let n = Array.length addrs in
  let intern = Intern.create ~capacity:(max 1 n) () in
  Array.iteri
    (fun id a ->
      if Intern.intern intern a <> id then
        Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
          ~code:"duplicate-node" ~addr:a "Dag: duplicate node %s"
          (Addr.to_string a))
    addrs;
  let e_dependent = Ivec.create (2 * n) and e_dependency = Ivec.create (2 * n) in
  let add ~dependent ~dependency =
    if dependent <> dependency then begin
      Ivec.push e_dependent dependent;
      Ivec.push e_dependency dependency
    end
  in
  link intern add;
  (* rank: position of each id's address in ascending-address order,
     so sorting a row by rank reproduces [Addr.Set.iter]; [by_addr] is
     the inverse permutation (rank -> id).  stable_sort (mergesort,
     ~n log n comparisons) over sort (heapsort, ~2n log n): the
     [Addr.compare] calls are the whole cost of this pass at 1M nodes;
     stability is moot (addresses are distinct). *)
  let rank = Array.make n 0 in
  let by_addr = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Addr.compare addrs.(a) addrs.(b)) by_addr;
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
    (* sort each row in rank space (plain ints, no comparator), drop
       duplicates (ranks are unique per id, so they are adjacent and
       exact), then map back through the inverse permutation *)
    Array.map
      (fun row ->
        let m = Array.length row in
        for r = 0 to m - 1 do
          row.(r) <- rank.(row.(r))
        done;
        sort_slice row 0 m;
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
  {
    intern;
    nodes;
    deps = freeze ~src:e_dependent ~dst:e_dependency;
    rdeps = freeze ~src:e_dependency ~dst:e_dependent;
    sched = None;
  }

let build ~addr ~edges nodes =
  make (Array.map addr nodes) nodes (fun intern add ->
      let resolve = resolver intern in
      Array.iteri (fun id node -> edges ~resolve ~add id node) nodes)

let of_edges nodes edges =
  make
    (Array.of_list (List.map fst nodes))
    (Array.of_list (List.map snd nodes))
    (fun intern add ->
      let id a =
        match Intern.find_opt intern a with
        | Some id -> id
        | None ->
            Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
              ~code:"unknown-node" ~addr:a "Dag.of_edges: unknown node %s"
              (Addr.to_string a)
      in
      List.iter
        (fun (dependent, dependency) ->
          add ~dependent:(id dependent) ~dependency:(id dependency))
        edges)

(** Build the graph from expansion output: one node per instance; edges
    from each instance to the instances its references and
    [depends_on] name.  Dependency addresses referring to a resource
    base (no instance key) connect to every instance of that base. *)
let of_instances (instances : Cloudless_hcl.Eval.instance list) =
  build
    ~addr:(fun (i : Cloudless_hcl.Eval.instance) -> i.Cloudless_hcl.Eval.addr)
    ~edges:(fun ~resolve ~add id (i : Cloudless_hcl.Eval.instance) ->
      List.iter
        (fun dep ->
          List.iter (fun d -> add ~dependent:id ~dependency:d) (resolve dep))
        (i.Cloudless_hcl.Eval.ref_deps @ i.Cloudless_hcl.Eval.explicit_deps))
    (Array.of_list instances)

(* ------------------------------------------------------------------ *)
(* Topological order                                                   *)
(* ------------------------------------------------------------------ *)

(* Kahn's algorithm by rounds: [order] doubles as the work queue (the
   write cursor only ever runs ahead of the read cursor), [offsets.(k)]
   is where round k starts, and each new round's slice is heapsorted in
   place — ids are node positions, so an ascending int sort makes round
   k match the seed's per-round [List.partition] scan byte for byte.
   Nodes left with a positive in-degree are the blocked nodes of a
   cycle. *)
let sched t =
  match t.sched with
  | Some s -> s
  | None ->
      let n = size t in
      let indeg = Array.map Array.length t.deps in
      let order = Array.make (max 1 n) 0 in
      let offsets = Array.make (n + 1) 0 in
      let w = ref 0 in
      for id = 0 to n - 1 do
        if indeg.(id) = 0 then begin
          order.(!w) <- id;
          incr w
        end
      done;
      let rounds = ref 0 in
      let r_start = ref 0 in
      while !r_start < !w do
        let r_end = !w in
        for i = !r_start to r_end - 1 do
          let rd = t.rdeps.(order.(i)) in
          for j = 0 to Array.length rd - 1 do
            let d = rd.(j) in
            let c = indeg.(d) - 1 in
            indeg.(d) <- c;
            if c = 0 then begin
              order.(!w) <- d;
              incr w
            end
          done
        done;
        incr rounds;
        offsets.(!rounds) <- r_end;
        sort_slice order r_end (!w - r_end);
        r_start := r_end
      done;
      if !w < n then begin
        let blocked = ref [] in
        for id = n - 1 downto 0 do
          if indeg.(id) > 0 then blocked := addr t id :: !blocked
        done;
        cycle !blocked
      end;
      let s = { order; offsets; rounds = !rounds } in
      t.sched <- Some s;
      s

let check_acyclic t = ignore (sched t)

let rounds_into t ~order ~offsets =
  let s = sched t in
  Array.blit s.order 0 order 0 (size t);
  Array.blit s.offsets 0 offsets 0 (s.rounds + 1);
  s.rounds

(** Stable topological sort: among nodes whose dependencies are
    satisfied, node order wins.  Raises a [plan/dependency-cycle]
    naming the blocked nodes when the graph has a cycle. *)
let topo_sort t =
  let s = sched t in
  List.init (size t) (fun i -> addr t s.order.(i))

(** Group nodes into parallel levels: level 0 has no dependencies,
    level k depends only on levels < k.  The number of levels is the
    graph depth; the widest level bounds achievable parallelism. *)
let levels t =
  let s = sched t in
  if s.rounds = 0 then [ [] ]
  else
    List.init s.rounds (fun k ->
        List.init
          (s.offsets.(k + 1) - s.offsets.(k))
          (fun i -> addr t s.order.(s.offsets.(k) + i)))

let depth t = max 1 (sched t).rounds

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

(** [critical_path t ~duration] computes, under the given per-node
    duration model, the longest dependency chain — the inherent lower
    bound on deployment makespan with unlimited parallelism.  Returns
    the total duration and the path from first to last node. *)
let critical_path t ~duration =
  let s = sched t in
  let n = size t in
  if n = 0 then (0., [])
  else begin
    let finish = Array.make n 0. in
    let dur = Array.make n 0. in
    for i = 0 to n - 1 do
      let id = s.order.(i) in
      let start =
        Array.fold_left (fun acc d -> Float.max acc finish.(d)) 0. t.deps.(id)
      in
      dur.(id) <- duration t.nodes.(id);
      finish.(id) <- start +. dur.(id)
    done;
    let last = ref s.order.(0) in
    for i = 1 to n - 1 do
      let id = s.order.(i) in
      if finish.(id) > finish.(!last) then last := id
    done;
    (* Walk backwards along the tight predecessors; the rows are in
       ascending-address order, so the first tight hit matches the
       seed's [Addr.Set.fold] choice. *)
    let rec back id acc =
      let start = finish.(id) -. dur.(id) in
      match
        Array.find_opt
          (fun d -> Float.abs (finish.(d) -. start) < 1e-9)
          t.deps.(id)
      with
      | None -> id :: acc
      | Some p -> back p (id :: acc)
    in
    (finish.(!last), List.map (addr t) (back !last []))
  end

(** Remaining-longest-path priority for every node: the length of the
    longest duration chain from the node (inclusive) to any sink.
    Zero-slack nodes are on the critical path and must never wait. *)
let priorities t ~duration =
  let s = sched t in
  let prio = Array.make (size t) 0. in
  for i = size t - 1 downto 0 do
    let id = s.order.(i) in
    let tail =
      Array.fold_left (fun acc r -> Float.max acc prio.(r)) 0. t.rdeps.(id)
    in
    prio.(id) <- tail +. duration t.nodes.(id)
  done;
  prio

(* ------------------------------------------------------------------ *)
(* Impact scope                                                        *)
(* ------------------------------------------------------------------ *)

(** §3.3 impact scope: the nodes whose plan can be affected by a change
    to [seeds] — the seeds, everything that (transitively) consumes
    their attributes, plus the direct dependencies of that set (needed
    to re-evaluate expressions, but not themselves replanned). *)
let impact_scope t seeds =
  (* '\001' = a seed or a dependent, '\002' = context only *)
  let mark = Bytes.make (size t) '\000' in
  let resolve = resolver t.intern in
  let rec visit id =
    if Bytes.get mark id = '\000' then begin
      Bytes.set mark id '\001';
      Array.iter visit t.rdeps.(id)
    end
  in
  List.iter (fun a -> List.iter visit (resolve a)) seeds;
  Array.iteri
    (fun id row ->
      if Bytes.get mark id = '\001' then
        Array.iter
          (fun d -> if Bytes.get mark d = '\000' then Bytes.set mark d '\002')
          row)
    t.deps;
  let out = ref Addr.Set.empty in
  Bytes.iteri
    (fun id m -> if m <> '\000' then out := Addr.Set.add (addr t id) !out)
    mark;
  !out

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

(** The seed's list-based traversals, kept in-tree (like the walker's
    [Sched_list]) so tests and the E12 bench can assert that the Kahn
    implementation above produces byte-identical orders and levels. *)
module Reference = struct
  (* The cons-cell Kahn loop: per-round int lists with a [List.sort]
     per round.  The oracle for the round structure (QCheck equivalence
     in test_raw_speed). *)
  let rounds t =
    let n = size t in
    let indeg = Array.map Array.length t.deps in
    let first = ref [] in
    for id = n - 1 downto 0 do
      if indeg.(id) = 0 then first := id :: !first
    done;
    let processed = ref 0 in
    let rec go ready acc =
      match ready with
      | [] -> List.rev acc
      | _ ->
          processed := !processed + List.length ready;
          let next = ref [] in
          List.iter
            (fun id ->
              Array.iter
                (fun d ->
                  indeg.(d) <- indeg.(d) - 1;
                  if indeg.(d) = 0 then next := d :: !next)
                t.rdeps.(id))
            ready;
          go (List.sort Int.compare !next) (ready :: acc)
    in
    let rounds = go !first [] in
    if !processed < n then begin
      let blocked = ref [] in
      for id = n - 1 downto 0 do
        if indeg.(id) > 0 then blocked := addr t id :: !blocked
      done;
      cycle !blocked
    end;
    List.map (List.map (addr t)) rounds

  let rdeps_of t a =
    match Intern.find_opt t.intern a with
    | Some id -> addr_set t t.rdeps.(id)
    | None -> Addr.Set.empty

  (* per-round List.partition over the remaining nodes: O(depth * V) *)
  let topo_sort t =
    let in_degree = Hashtbl.create 64 in
    List.iter
      (fun a -> Hashtbl.replace in_degree a (Addr.Set.cardinal (deps_of t a)))
      (nodes t);
    let result = ref [] in
    let remaining = ref (nodes t) in
    let progress = ref true in
    while !remaining <> [] && !progress do
      progress := false;
      let ready, blocked =
        List.partition (fun a -> Hashtbl.find in_degree a = 0) !remaining
      in
      if ready <> [] then begin
        progress := true;
        List.iter
          (fun a ->
            result := a :: !result;
            Addr.Set.iter
              (fun d -> Hashtbl.replace in_degree d (Hashtbl.find in_degree d - 1))
              (rdeps_of t a))
          ready;
        remaining := blocked
      end
    done;
    if !remaining <> [] then cycle !remaining;
    List.rev !result

  (* per-level List.filter over the full order: O(depth * V) *)
  let levels t =
    let level = Hashtbl.create 64 in
    let order = topo_sort t in
    List.iter
      (fun a ->
        let l =
          Addr.Set.fold
            (fun d acc -> max acc (Hashtbl.find level d + 1))
            (deps_of t a) 0
        in
        Hashtbl.replace level a l)
      order;
    let max_level =
      List.fold_left (fun acc a -> max acc (Hashtbl.find level a)) 0 order
    in
    List.init (max_level + 1) (fun l ->
        List.filter (fun a -> Hashtbl.find level a = l) order)

  let impact_scope t seeds =
    let all = nodes t in
    let resolved =
      List.fold_left
        (fun acc a ->
          if Intern.mem t.intern a then Addr.Set.add a acc
          else
            List.fold_left
              (fun acc x ->
                if Addr.same_base x a then Addr.Set.add x acc else acc)
              acc all)
        Addr.Set.empty seeds
    in
    let rec grow scope =
      let scope' =
        List.fold_left
          (fun acc x ->
            if Addr.Set.exists (fun d -> Addr.Set.mem d scope) (deps_of t x) then
              Addr.Set.add x acc
            else acc)
          scope all
      in
      if Addr.Set.equal scope scope' then scope else grow scope'
    in
    let dependents = grow resolved in
    Addr.Set.fold
      (fun a acc -> Addr.Set.union acc (deps_of t a))
      dependents dependents
end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_dot ?(name = "deps") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Array.iteri
    (fun id row ->
      let a = Addr.to_string (addr t id) in
      Buffer.add_string buf (Printf.sprintf "  %S;\n" a);
      Array.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf "  %S -> %S;\n" a (Addr.to_string (addr t d))))
        row)
    t.deps;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
