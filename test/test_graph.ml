(* Tests for the dependency DAG: construction, topological order,
   levels, critical path, impact scope. *)

open Cloudless_hcl
module Dag = Cloudless_graph.Dag
module Diagnostic = Cloudless_error.Diagnostic

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let addr name = Addr.make ~rtype:"t_x" ~rname:name ()

(* a -> b -> d, a -> c -> d (diamond), plus [extra] edges; payload =
   duration *)
let diamond ?(extra = []) () =
  Dag.of_edges
    (List.map (fun (n, d) -> (addr n, d))
       [ ("a", 1.); ("b", 10.); ("c", 2.); ("d", 1.) ])
    (List.map
       (fun (x, y) -> (addr x, addr y))
       ([ ("b", "a"); ("c", "a"); ("d", "b"); ("d", "c") ] @ extra))

let names addrs = List.map (fun a -> a.Addr.rname) addrs

let test_topo_sort () =
  let order = names (Dag.topo_sort (diamond ())) in
  check string_ "a first" "a" (List.hd order);
  check string_ "d last" "d" (List.nth order 3);
  (* stable: b before c (insertion order) *)
  check (Alcotest.list string_) "full order" [ "a"; "b"; "c"; "d" ] order

let test_cycle_detection () =
  let g = diamond ~extra:[ ("a", "d") ] () in
  (match Dag.check_acyclic g with
  | exception Cloudless_error.Error d ->
      check string_ "code" "dependency-cycle" d.Diagnostic.code;
      check string_ "blocked, node order"
        "dependency cycle between: t_x.a, t_x.b, t_x.c, t_x.d"
        d.Diagnostic.message;
      check bool_ "addressed to the first" true
        (d.Diagnostic.addr = Some (addr "a"))
  | () -> Alcotest.fail "expected a cycle");
  match Dag.topo_sort g with
  | exception Cloudless_error.Error { code = "dependency-cycle"; _ } -> ()
  | _ -> Alcotest.fail "expected a cycle"

let test_levels () =
  let ls = Dag.levels (diamond ()) in
  check int_ "3 levels" 3 (List.length ls);
  check (Alcotest.list string_) "middle level" [ "b"; "c" ] (names (List.nth ls 1));
  check int_ "depth" 3 (Dag.depth (diamond ()))

let test_critical_path () =
  let total, path = Dag.critical_path (diamond ()) ~duration:Fun.id in
  check (Alcotest.float 1e-9) "1+10+1" 12. total;
  check (Alcotest.list string_) "path through b" [ "a"; "b"; "d" ] (names path)

let test_priorities () =
  (* by node id: a, b, c, d *)
  let prio = Dag.priorities (diamond ()) ~duration:Fun.id in
  (* remaining longest path including self *)
  check (Alcotest.float 1e-9) "a = full path" 12. prio.(0);
  check (Alcotest.float 1e-9) "b on critical path" 11. prio.(1);
  check (Alcotest.float 1e-9) "c slack" 3. prio.(2);
  check bool_ "b more critical than c" true (prio.(1) > prio.(2))

let test_impact_scope () =
  let g = diamond () in
  (* editing c impacts c, d (dependents) + their deps a, b as context *)
  let scope = Dag.impact_scope g [ addr "c" ] in
  check bool_ "c in scope" true (Addr.Set.mem (addr "c") scope);
  check bool_ "d in scope" true (Addr.Set.mem (addr "d") scope);
  check bool_ "a in scope (context dep of c)" true (Addr.Set.mem (addr "a") scope)

let test_impact_scope_small_for_leaf () =
  (* editing the sink d impacts only d + its direct deps *)
  let g = diamond () in
  let scope = Dag.impact_scope g [ addr "d" ] in
  check int_ "d, b, c" 3 (Addr.Set.cardinal scope)

let test_of_instances () =
  let cfg =
    Config.parse ~file:"t"
      {|
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  count  = 3
  vpc_id = aws_vpc.v.id
}
resource "aws_instance" "i" {
  ami           = "a"
  instance_type = "t"
  subnet_id     = aws_subnet.s[0].id
}
|}
  in
  let instances = (Eval.expand cfg).Eval.instances in
  let g = Dag.of_instances instances in
  check int_ "5 nodes" 5 (Dag.size g);
  (* each subnet depends on the vpc *)
  let subnet0 = Addr.make ~rtype:"aws_subnet" ~rname:"s" ~key:(Addr.Kint 0) () in
  check int_ "subnet deps" 1 (Addr.Set.cardinal (Dag.deps_of g subnet0));
  (* the instance depends on the subnets (base-resolved) *)
  let inst = Addr.make ~rtype:"aws_instance" ~rname:"i" () in
  check bool_ "instance deps nonempty" true
    (not (Addr.Set.is_empty (Dag.deps_of g inst)))

let test_to_dot () =
  let dot = Dag.to_dot (diamond ()) in
  check bool_ "digraph" true (Test_fixtures.contains_substring ~sub:"digraph" dot);
  check bool_ "edge" true (Test_fixtures.contains_substring ~sub:"->" dot)

(* A graph is built from what the program hands it, so a bad node set
   is a typed internal error, never a silently merged node or a
   dangling edge. *)
let test_build_rejects_bad_nodes () =
  let module D = Cloudless_error.Diagnostic in
  let internal what code f =
    match f () with
    | exception Cloudless_error.Error d ->
        check bool_ (what ^ ": internal stage") true (d.D.stage = D.Internal);
        check string_ (what ^ ": code") code d.D.code
    | _ -> Alcotest.failf "%s: expected a typed error" what
  in
  internal "duplicate node" "duplicate-node" (fun () ->
      Dag.build ~addr:Fun.id
        ~edges:(fun ~resolve:_ ~add:_ _ _ -> ())
        [| addr "a"; addr "b"; addr "a" |]);
  internal "unknown endpoint" "unknown-node" (fun () ->
      Dag.of_edges [ (addr "a", ()) ] [ (addr "a", addr "z") ])

(* ------------------------------------------------------------------ *)
(* Equivalence with the seed's list-scan reference traversals          *)
(* ------------------------------------------------------------------ *)

(* Node i gets a keyed address with base "n(i/3)", so three consecutive
   nodes share a base — exercises base-granularity resolution too. *)
let knode i =
  Addr.make ~rtype:"t_x"
    ~rname:(Printf.sprintf "n%d" (i / 3))
    ~key:(Addr.Kint (i mod 3)) ()

(* Random DAG: n nodes in node order; each edge (a, b) is oriented
   from the higher index to the lower, so the graph is acyclic by
   construction. *)
let build_random n pairs =
  Dag.of_edges
    (List.init n (fun i -> (knode i, i)))
    (List.filter_map
       (fun (a, b) ->
         let a = a mod n and b = b mod n in
         if a <> b then Some (knode (max a b), knode (min a b)) else None)
       pairs)

let random_dag_arb =
  QCheck.(
    pair (int_range 1 30)
      (list_of_size Gen.(0 -- 60) (pair small_nat small_nat)))

let prop_kahn_matches_reference =
  QCheck.Test.make ~count:200 ~name:"Kahn topo/levels = reference on random DAGs"
    random_dag_arb
    (fun (n, pairs) ->
      let g = build_random n pairs in
      Dag.topo_sort g = Dag.Reference.topo_sort g
      && Dag.levels g = Dag.Reference.levels g
      && Dag.depth g = List.length (Dag.Reference.levels g))

let prop_impact_matches_reference =
  QCheck.Test.make ~count:100
    ~name:"plan impact scope = reference (exact + base edits)"
    QCheck.(pair random_dag_arb small_nat)
    (fun ((n, pairs), e) ->
      let g = build_random n pairs in
      let i = e mod n in
      (* the base address (no key) is not a graph node, so scoping must
         fan it out to every instance sharing the base *)
      let base =
        Addr.make ~rtype:"t_x" ~rname:(Printf.sprintf "n%d" (i / 3)) ()
      in
      let edited = [ knode i; base ] in
      Addr.Set.equal
        (Dag.impact_scope g edited)
        (Dag.Reference.impact_scope g edited))

let test_memo_invalidation () =
  let g = diamond () in
  check (Alcotest.list string_) "initial" [ "a"; "b"; "c"; "d" ]
    (names (Dag.topo_sort g));
  check (Alcotest.list string_) "memoized" [ "a"; "b"; "c"; "d" ]
    (names (Dag.topo_sort g));
  (* a graph with one more edge has its own rounds *)
  let g = diamond ~extra:[ ("b", "c") ] () in
  check (Alcotest.list string_) "after new edge" [ "a"; "c"; "b"; "d" ]
    (names (Dag.topo_sort g));
  check (Alcotest.list string_) "reference agrees"
    (names (Dag.Reference.topo_sort g))
    (names (Dag.topo_sort g))

(* Property: impact scope of a random seed set is monotone (adding
   seeds never shrinks it) and contains the seeds. *)
let prop_impact_monotone =
  QCheck.Test.make ~count:50 ~name:"impact scope monotone in seeds"
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (i, j) ->
      let g = diamond () in
      let all = [| "a"; "b"; "c"; "d" |] in
      let s1 = [ addr all.(i) ] in
      let s2 = addr all.(j) :: s1 in
      let sc1 = Dag.impact_scope g s1 and sc2 = Dag.impact_scope g s2 in
      Addr.Set.subset sc1 sc2 && Addr.Set.mem (addr all.(i)) sc1)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "graph.dag",
      [
        Alcotest.test_case "topo sort" `Quick test_topo_sort;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "levels" `Quick test_levels;
        Alcotest.test_case "critical path" `Quick test_critical_path;
        Alcotest.test_case "priorities" `Quick test_priorities;
        Alcotest.test_case "impact scope" `Quick test_impact_scope;
        Alcotest.test_case "impact scope leaf" `Quick test_impact_scope_small_for_leaf;
        Alcotest.test_case "of_instances" `Quick test_of_instances;
        Alcotest.test_case "to_dot" `Quick test_to_dot;
        Alcotest.test_case "build rejects bad nodes" `Quick
          test_build_rejects_bad_nodes;
        Alcotest.test_case "memo invalidation" `Quick test_memo_invalidation;
        qtest prop_impact_monotone;
        qtest prop_kahn_matches_reference;
        qtest prop_impact_matches_reference;
      ] );
  ]
