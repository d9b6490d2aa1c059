(* The raw-speed core (E16): the interned-id hot path must be
   observably identical to the seed's reference implementations.

   - the address interner's basic contract;
   - [Plan.exec_graph]/[exec_rounds] vs the [Dag]-based oracle on
     random fleet/chain workloads;
   - the [Workload.fleet_instances]/[chain_instances] fast paths vs
     the parsed-and-evaluated text generators, field for field;
   - the journal's fused buffer encoder vs [Journal.Reference] over
     adversarial values (quotes, backslashes, interpolation starts,
     control bytes, unknowns, deep nesting);
   - [State.orphans] (hashtable membership) vs a set-based oracle;
   - [Components.apply] byte-identity across domain counts on a 10k plan. *)

open Cloudless_hcl
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Components = Cloudless_deploy.Components
module Dag = Cloudless_graph.Dag
module Intern = Cloudless_graph.Intern
module Workload = Cloudless_workload.Workload
module Cloud = Cloudless_sim.Cloud

let check = Alcotest.check
let int_ = Alcotest.int
let qtest = QCheck_alcotest.to_alcotest
let addr_ty = Alcotest.testable Addr.pp Addr.equal

let mk ?key rtype rname = Addr.make ?key ~rtype ~rname ()

(* ------------------------------------------------------------------ *)
(* Interner                                                            *)
(* ------------------------------------------------------------------ *)

let test_intern_basics () =
  let t = Intern.create ~capacity:2 () in
  let a = mk "aws_vpc" "main" in
  let b = mk "aws_subnet" "a" in
  check int_ "first id" 0 (Intern.intern t a);
  check int_ "second id" 1 (Intern.intern t b);
  check int_ "stable on re-intern" 0 (Intern.intern t a);
  check int_ "length" 2 (Intern.length t);
  check (Alcotest.option int_) "find_opt hit" (Some 1) (Intern.find_opt t b);
  check (Alcotest.option int_) "find_opt miss" None
    (Intern.find_opt t (mk "aws_eip" "x"));
  check addr_ty "addr roundtrip" a (Intern.addr t 0);
  (* growth beyond the initial capacity mints dense ids in order *)
  for i = 0 to 99 do
    check int_ "dense"
      (i + 2)
      (Intern.intern t (mk "aws_eip" (Printf.sprintf "e%d" i)))
  done;
  check int_ "grown length" 102 (Intern.length t);
  (match Intern.addr t 500 with
  | exception Cloudless_error.Error _ -> ()
  | _ -> Alcotest.fail "out-of-range id must raise");
  let order = ref [] in
  Intern.iter (fun id ad -> order := (id, ad) :: !order) t;
  check int_ "iter covers all" 102 (List.length !order);
  check int_ "iter ascending" 0 (fst (List.hd (List.rev !order)))

let test_intern_of_list () =
  let a = mk "t" "a" and b = mk "t" "b" in
  let t = Intern.of_list [ a; b; a; b; a ] in
  check int_ "duplicates collapse" 2 (Intern.length t);
  check addr_ty "list order 0" a (Intern.addr t 0);
  check addr_ty "list order 1" b (Intern.addr t 1)

(* ------------------------------------------------------------------ *)
(* exec_graph/exec_rounds vs the Dag oracle                            *)
(* ------------------------------------------------------------------ *)

(* Random instance workload: a fleet (wide, grouped) or a chain
   (maximally deep), sizes small enough to keep the oracle cheap. *)
let workload_gen =
  QCheck.Gen.(
    pair bool (int_range 1 120) >|= fun (chain, n) ->
    if chain then ("chain", Workload.chain_instances ~resources:n ())
    else ("fleet", Workload.fleet_instances ~resources:n ()))

let workload_arb =
  QCheck.make workload_gen ~print:(fun (kind, is) ->
      Printf.sprintf "%s of %d" kind (List.length is))

let prop_exec_rounds_match_oracle =
  QCheck.Test.make ~count:60
    ~name:"exec_graph rounds = Dag rounds of execution_graph"
    workload_arb
    (fun (_, instances) ->
      let plan = Plan.make ~state:State.empty instances in
      let xg = Plan.exec_graph plan in
      let flat_rounds =
        List.map
          (List.map (fun id -> xg.Plan.xchanges.(id).Plan.addr))
          (Plan.exec_rounds xg)
      in
      let oracle_rounds = Dag.levels (Plan.execution_graph plan) in
      flat_rounds = oracle_rounds)

let prop_execution_graph_matches_reference =
  QCheck.Test.make ~count:40
    ~name:"execution_graph = Reference.execution_graph on random workloads"
    workload_arb
    (fun (_, instances) ->
      let plan = Plan.make ~state:State.empty instances in
      let g = Plan.execution_graph plan in
      let r = Plan.Reference.execution_graph plan in
      Dag.nodes g = Dag.nodes r
      && List.for_all
           (fun a -> Addr.Set.equal (Dag.deps_of g a) (Dag.deps_of r a))
           (Dag.nodes g))

(* ------------------------------------------------------------------ *)
(* Dag.rounds_into vs Dag.Reference.rounds on adversarial DAGs         *)
(* ------------------------------------------------------------------ *)

let node i = mk ~key:(Addr.Kint i) "node" "n"

(* A dag over nodes [0 .. n-1] (insertion order = interned id) with the
   given (dependent, dependency) edges. *)
let dag_of ~n edges =
  let g =
    List.fold_left
      (fun g i -> Dag.add_node g (node i) i)
      Dag.empty
      (List.init n Fun.id)
  in
  List.fold_left
    (fun g (a, b) -> Dag.add_edge g ~dependent:(node a) ~dependency:(node b))
    g edges

(* Rounds through the zero-alloc kernel, mapped back to addresses so
   they compare against the reference's [Addr.t list list]. *)
let rounds_via_kernel g =
  let n = Dag.size g in
  let nodes = Array.of_list (Dag.nodes g) in
  let order = Array.make (max 1 n) 0 in
  let offsets = Array.make (n + 1) 0 in
  let rounds = Dag.rounds_into g ~order ~offsets in
  List.init rounds (fun k ->
      List.init
        (offsets.(k + 1) - offsets.(k))
        (fun i -> nodes.(order.(offsets.(k) + i))))

let check_rounds_match ~what g =
  if rounds_via_kernel g <> Dag.Reference.rounds g then
    Alcotest.failf "%s: rounds_into disagrees with Reference.rounds" what

let test_rounds_into_adversarial () =
  check_rounds_match ~what:"empty" (dag_of ~n:0 []);
  check (Alcotest.list (Alcotest.list addr_ty)) "empty has no rounds" []
    (rounds_via_kernel (dag_of ~n:0 []));
  (* single round: no edges — one ascending slice *)
  let flat = dag_of ~n:17 [] in
  check_rounds_match ~what:"single round" flat;
  check int_ "single round count" 1 (List.length (rounds_via_kernel flat));
  (* diamond ladder: 0 -> (1,2) -> 3 -> (4,5) -> 6 -> ... each diamond
     adds two rounds; tie-break order inside the wide rounds matters *)
  let ladder depth =
    let edges = ref [] in
    for d = 0 to depth - 1 do
      let top = 3 * d and bottom = (3 * d) + 3 in
      edges :=
        (top + 1, top) :: (top + 2, top)
        :: (bottom, top + 1) :: (bottom, top + 2)
        :: !edges
    done;
    dag_of ~n:((3 * depth) + 1) !edges
  in
  List.iter
    (fun d ->
      let g = ladder d in
      check_rounds_match ~what:(Printf.sprintf "diamond ladder %d" d) g;
      check int_
        (Printf.sprintf "ladder %d depth" d)
        ((2 * d) + 1)
        (List.length (rounds_via_kernel g)))
    [ 1; 2; 7 ];
  (* a cycle raises in both implementations *)
  let cyclic = dag_of ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  (match rounds_via_kernel cyclic with
  | exception Dag.Cycle blocked ->
      check int_ "cycle blocks all three" 3 (List.length blocked)
  | _ -> Alcotest.fail "rounds_into must raise Cycle");
  match Dag.Reference.rounds cyclic with
  | exception Dag.Cycle _ -> ()
  | _ -> Alcotest.fail "Reference.rounds must raise Cycle"

(* Random forward-edge DAGs: any (dependent i, dependency j) with j < i
   is acyclic by construction, so density can be cranked without care. *)
let dag_gen =
  QCheck.Gen.(
    int_range 0 60 >>= fun n ->
    if n < 2 then return (n, [])
    else
      let edge =
        int_range 0 ((n * n) - 1) >|= fun e ->
        let i = e / n and j = e mod n in
        if i > j then (i, j) else (j, i)
      in
      list_size (int_range 0 (3 * n)) edge >|= fun edges ->
      (n, List.filter (fun (a, b) -> a <> b) edges))

let dag_arb =
  QCheck.make dag_gen ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d<-%d" b a) edges)))

let prop_rounds_into_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"Dag.rounds_into = Reference.rounds on random forward-edge DAGs"
    dag_arb
    (fun (n, edges) ->
      let g = dag_of ~n edges in
      rounds_via_kernel g = Dag.Reference.rounds g)

(* Scheduling order at 10k, pinned: the digest covers the round
   structure and every address in kernel emission order, so any change
   to tie-breaking, round boundaries, or the freeze's row order shows
   up here as a byte diff.  (The qcheck property above proves the
   kernel equals the seed's Dag oracle; this pins the concrete 10k
   artifact across refactors.) *)
let exec_order_digest xg =
  let n = Plan.exec_size xg in
  let order = Array.make (max 1 n) 0 in
  let offsets = Array.make (n + 1) 0 in
  let rounds = Plan.exec_rounds_into xg ~order ~offsets in
  let buf = Buffer.create (16 * n) in
  Buffer.add_string buf (string_of_int rounds);
  for k = 0 to rounds do
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int offsets.(k))
  done;
  for i = 0 to n - 1 do
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Addr.to_string xg.Plan.xchanges.(order.(i)).Plan.addr)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_exec_rounds_golden_10k () =
  let digest_of instances =
    exec_order_digest
      (Plan.exec_graph (Plan.make ~state:State.empty instances))
  in
  check Alcotest.string "fleet 10k order digest" "a4b37ac064cf0b2f46649e77bb3f3d18"
    (digest_of (Workload.fleet_instances ~resources:10_000 ()));
  check Alcotest.string "chain 1k order digest" "1ac4385d07f2a32556004cfc26d54163"
    (digest_of (Workload.chain_instances ~resources:1_000 ()))

(* ------------------------------------------------------------------ *)
(* Fast-path generators vs the parsed text                             *)
(* ------------------------------------------------------------------ *)

let expand_text src =
  let cfg = Config.parse ~file:"gen.tf" src in
  (Eval.expand cfg).Eval.instances

let check_instances_match ~what fast parsed =
  check int_ (what ^ ": count") (List.length parsed) (List.length fast);
  List.iter2
    (fun (f : Eval.instance) (p : Eval.instance) ->
      let where = what ^ ": " ^ Addr.to_string p.Eval.addr in
      check addr_ty (where ^ " addr") p.Eval.addr f.Eval.addr;
      check Alcotest.string (where ^ " provider") p.Eval.provider
        f.Eval.provider;
      if not (Value.Smap.equal Value.equal p.Eval.attrs f.Eval.attrs) then
        Alcotest.failf "%s: attrs differ" where;
      check (Alcotest.list addr_ty) (where ^ " ref_deps") p.Eval.ref_deps
        f.Eval.ref_deps;
      check
        (Alcotest.list addr_ty)
        (where ^ " explicit_deps") p.Eval.explicit_deps f.Eval.explicit_deps;
      if p.Eval.lifecycle <> f.Eval.lifecycle then
        Alcotest.failf "%s: lifecycle differs" where)
    fast parsed

let test_fleet_fast_path () =
  List.iter
    (fun n ->
      check_instances_match
        ~what:(Printf.sprintf "fleet %d" n)
        (Workload.fleet_instances ~resources:n ())
        (expand_text (Workload.fleet ~resources:n ())))
    [ 1; 2; 7; 25; 100 ]

let test_chain_fast_path () =
  List.iter
    (fun n ->
      check_instances_match
        ~what:(Printf.sprintf "chain %d" n)
        (Workload.chain_instances ~resources:n ())
        (expand_text (Workload.chain ~resources:n ())))
    [ 1; 2; 13; 40 ]

(* ------------------------------------------------------------------ *)
(* Journal encoder vs Reference                                        *)
(* ------------------------------------------------------------------ *)

(* Strings that exercise every branch of the fused escaper: HCL-level
   escapes (quote, backslash, interpolation start), JSON-level escapes
   (newline, tab, CR, control bytes), and clean runs around them. *)
let nasty_string_gen =
  QCheck.Gen.(
    oneof
      [
        small_string ~gen:printable;
        oneofl
          [
            "";
            "plain";
            "qu\"ote";
            "back\\slash";
            "new\nline\tand\ttab";
            "\r\x01\x1f";
            "${interp}";
            "$not_interp";
            "trailing$";
            "a-b_c.d";
            "ends with ${";
            "\\${both}\"";
          ];
      ])

let value_gen =
  QCheck.Gen.(
    sized @@ fix (fun self k ->
        let leaf =
          oneof
            [
              return Value.Vnull;
              map (fun b -> Value.Vbool b) bool;
              map (fun i -> Value.Vint i) small_signed_int;
              map
                (fun f -> Value.Vfloat f)
                (oneofl [ 0.; 0.5; -1.25; 3.0; 1e30; 123456.789 ]);
              map (fun s -> Value.Vstring s) nasty_string_gen;
              map (fun s -> Value.Vunknown s) nasty_string_gen;
            ]
        in
        if k = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map
                  (fun vs -> Value.Vlist vs)
                  (list_size (0 -- 4) (self (k / 2))) );
              ( 1,
                map
                  (fun kvs ->
                    Value.Vmap
                      (List.fold_left
                         (fun m (k, v) -> Value.Smap.add k v m)
                         Value.Smap.empty kvs))
                  (list_size (0 -- 4)
                     (pair nasty_string_gen (self (k / 2)))) );
            ]))

let smap_gen =
  QCheck.Gen.(
    map
      (fun kvs ->
        List.fold_left
          (fun m (k, v) -> Value.Smap.add k v m)
          Value.Smap.empty kvs)
      (list_size (0 -- 6) (pair nasty_string_gen (value_gen))))

let addr_gen =
  QCheck.Gen.(
    let ident = oneofl [ "aws_instance"; "aws_vpc"; "we$ird"; "x" ] in
    let key =
      oneof
        [
          return Addr.Knone;
          map (fun i -> Addr.Kint i) small_nat;
          map (fun s -> Addr.Kstr s) nasty_string_gen;
        ]
    in
    let mode = oneofl [ Addr.Managed; Addr.Data ] in
    let mpath = oneofl [ []; [ "net" ]; [ "a"; "b" ] ] in
    map
      (fun ((rtype, rname), (key, (mode, module_path))) ->
        Addr.make ~module_path ~mode ~key ~rtype ~rname ())
      (pair (pair ident ident) (pair key (pair mode mpath))))

let entry_gen =
  QCheck.Gen.(
    let kind = oneofl [ Journal.Op_create; Journal.Op_update; Journal.Op_delete ] in
    let time = oneofl [ 0.; 12.5; 1e9; 0.1 +. 0.2; Float.nan ] in
    oneof
      [
        map
          (fun (e, (c, t)) -> Journal.Run_started { engine = e; changes = c; time = t })
          (pair nasty_string_gen (pair small_nat time));
        map
          (fun ((a, k), ((p, d), ((r, pr), (c, t)))) ->
            Journal.Intent
              {
                Journal.op = c;
                iaddr = a;
                kind = k;
                rtype = r;
                region = "us-east-1";
                payload = p;
                prior_cloud_id = pr;
                deps = d;
                log_cursor = c;
                itime = t;
              })
          (pair (pair addr_gen kind)
             (pair
                (pair smap_gen (list_size (0 -- 3) addr_gen))
                (pair
                   (pair nasty_string_gen (option nasty_string_gen))
                   (pair small_nat time))));
        map
          (fun ((a, k), ((at, ci), ((ok, re), (rs, t)))) ->
            Journal.Outcome
              {
                Journal.oop = 1;
                oaddr = a;
                okind = k;
                ok;
                cloud_id = ci;
                attrs = at;
                retried = re;
                reason = rs;
                otime = t;
              })
          (pair (pair addr_gen kind)
             (pair
                (pair smap_gen (option nasty_string_gen))
                (pair (pair bool bool)
                   (pair (option nasty_string_gen) time))));
        map (fun t -> Journal.Run_finished { time = t }) time;
      ])

let prop_journal_encoder_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"journal buffer encoder = Reference, byte for byte"
    (QCheck.make entry_gen)
    (fun entry ->
      Journal.entry_to_line entry = Journal.Reference.entry_to_line entry)

let test_journal_to_string_matches_reference () =
  let entries =
    [
      Journal.Run_started { engine = "cloudless"; changes = 2; time = 0. };
      Journal.Intent
        {
          Journal.op = 1;
          iaddr = mk ~key:(Addr.Kstr "we\"ird") "aws_instance" "web";
          kind = Journal.Op_create;
          rtype = "aws_instance";
          region = "us-east-1";
          payload =
            Value.Smap.singleton "startup"
              (Value.Vstring "echo \"${hi}\"\n\ttail");
          prior_cloud_id = None;
          deps = [ mk "aws_vpc" "main"; mk ~key:(Addr.Kint 3) "aws_subnet" "a" ];
          log_cursor = 0;
          itime = 1.5;
        };
      Journal.Run_finished { time = 2.5 };
    ]
  in
  check Alcotest.string "to_string equal"
    (Journal.Reference.to_string entries)
    (Journal.to_string entries)

(* ------------------------------------------------------------------ *)
(* Orphan detection vs a set oracle                                    *)
(* ------------------------------------------------------------------ *)

let prop_orphans_match_set_oracle =
  QCheck.Test.make ~count:100 ~name:"State.orphans = set-difference oracle"
    QCheck.(pair (int_range 0 40) (int_range 0 40))
    (fun (nstate, nkeep) ->
      let row i =
        {
          State.addr = mk ~key:(Addr.Kint i) "aws_eip" "pool";
          cloud_id = Printf.sprintf "eip-%d" i;
          rtype = "aws_eip";
          region = "us-east-1";
          attrs = Value.Smap.empty;
          deps = [];
        }
      in
      let state =
        List.fold_left
          (fun st i -> State.add st (row i))
          State.empty
          (List.init nstate Fun.id)
      in
      (* overlap and non-state addresses both present *)
      let keep =
        List.init nkeep (fun i -> mk ~key:(Addr.Kint (2 * i)) "aws_eip" "pool")
      in
      let oracle =
        let keep_set = Addr.Set.of_list keep in
        List.filter
          (fun a -> not (Addr.Set.mem a keep_set))
          (List.map (fun (r : State.resource_state) -> r.State.addr)
             (State.resources state))
      in
      State.orphans state keep = oracle)

(* ------------------------------------------------------------------ *)
(* Component-split apply: byte identity across domain counts           *)
(* ------------------------------------------------------------------ *)

let fresh_cloud () =
  Cloud.create
    ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
    ~seed:42 ()

let split_digest (r : Components.report) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun a ->
      Buffer.add_string buf (Addr.to_string a);
      Buffer.add_char buf '\n')
    r.Components.applied;
  Buffer.add_string buf (Printf.sprintf "%.17g\n" r.Components.makespan);
  Buffer.add_string buf (State.to_string r.Components.state);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_shard_domains_byte_identical () =
  let instances = Workload.fleet_instances ~fleets:4 ~resources:10_000 () in
  let plan = Plan.make ~state:State.empty instances in
  let run domains =
    let r =
      Components.apply
        ~make_cloud:(fun _ -> fresh_cloud ())
        ~domains ~config:Executor.cloudless_config ~state:State.empty ~plan ()
    in
    if not (Components.succeeded r) then Alcotest.fail "split apply failed";
    (r, split_digest r)
  in
  let r1, d1 = run 1 in
  let _, d4 = run 4 in
  check int_ "one component per fleet" 4 (List.length r1.Components.parts);
  check int_ "all resources applied" 10_000 (List.length r1.Components.applied);
  check Alcotest.string "domains 1 = domains 4, byte for byte" d1 d4;
  check int_ "merged state size" 10_000 (State.size r1.Components.state)

let suites =
  [
    ( "raw_speed.intern",
      [
        Alcotest.test_case "basics" `Quick test_intern_basics;
        Alcotest.test_case "of_list" `Quick test_intern_of_list;
      ] );
    ( "raw_speed.plan",
      [
        qtest prop_exec_rounds_match_oracle;
        qtest prop_execution_graph_matches_reference;
        qtest prop_orphans_match_set_oracle;
        Alcotest.test_case "10k/1k scheduling order golden" `Quick
          test_exec_rounds_golden_10k;
      ] );
    ( "raw_speed.dag",
      [
        Alcotest.test_case "adversarial shapes" `Quick
          test_rounds_into_adversarial;
        qtest prop_rounds_into_matches_reference;
      ] );
    ( "raw_speed.workload",
      [
        Alcotest.test_case "fleet fast path = parsed text" `Quick
          test_fleet_fast_path;
        Alcotest.test_case "chain fast path = parsed text" `Quick
          test_chain_fast_path;
      ] );
    ( "raw_speed.journal",
      [
        qtest prop_journal_encoder_matches_reference;
        Alcotest.test_case "to_string = Reference.to_string" `Quick
          test_journal_to_string_matches_reference;
      ] );
    ( "raw_speed.shard",
      [
        Alcotest.test_case "10k fleet: domains 1 = domains 4" `Slow
          test_shard_domains_byte_identical;
      ] );
  ]
