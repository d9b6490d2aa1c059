(* The cloudless engine's scoped refresh (§3.3): an apply re-reads the
   plan's impact scope — its creates, updates and replaces, what
   transitively consumes them, and their direct dependencies, limited
   to recorded rows — and nothing else.  Covered end to end through
   [Cli.apply]/[Cli.destroy], at the executor, and against a Dag-built
   oracle on generated fleets and edits. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Dag = Cloudless_graph.Dag
module Workload = Cloudless_workload.Workload
module Trace = Cloudless_obs.Trace
module Cli = Cloudless.Cli
module Session = Cloudless.Session
module Io_util = Cloudless.Io_util
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let temp_path suffix =
  let path = Filename.temp_file "cloudless_scope" suffix in
  Sys.remove path;
  path

let quiet = { Cli.out = ignore; err = ignore }

(* ------------------------------------------------------------------ *)
(* Editing generated sources                                          *)
(* ------------------------------------------------------------------ *)

let find_from s sub i =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then Alcotest.failf "%S not found" sub
    else if String.sub s i k = sub then i
    else go (i + 1)
  in
  go i

let header rtype name = Printf.sprintf "resource %S %S {\n" rtype name

(* Rewrite the value of the first [key] line inside block [rtype.name]. *)
let set_attr src ~rtype ~name ~key ~value =
  let from = find_from src (header rtype name) 0 in
  let i = find_from src (Printf.sprintf "  %s " key) from in
  let i = String.index_from src i '=' + 2 in
  let j = String.index_from src i '\n' in
  String.sub src 0 i ^ value ^ String.sub src j (String.length src - j)

(* Give block [rtype.name] a [tags] attribute. *)
let add_tags src ~rtype ~name =
  let h = header rtype name in
  let i = find_from src h 0 + String.length h in
  String.sub src 0 i ^ "  tags = { team = \"net\" }\n"
  ^ String.sub src i (String.length src - i)

let group g = Printf.sprintf "g%d" g

(* ------------------------------------------------------------------ *)
(* Executor-level helpers                                             *)
(* ------------------------------------------------------------------ *)

let expand ~state src =
  (Eval.expand ~env:(Session.env_for state) (Config.parse ~file:"fleet.tf" src))
    .Eval.instances

(* Deploy [src] from empty state on a fresh cloud. *)
let deploy src =
  let cloud =
    Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed:5 ()
  in
  let plan = Plan.make ~state:State.empty (expand ~state:State.empty src) in
  let report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
      ~plan ()
  in
  if not (Executor.succeeded report) then Alcotest.fail "deploy failed";
  (cloud, report.Executor.state)

let addrs l = Addr.Set.of_list l
let inst g k =
  Addr.make ~rtype:"aws_instance" ~rname:(group g) ~key:(Addr.Kint k) ()
let single rtype name = Addr.make ~rtype ~rname:name ()

let set_to_string s =
  String.concat ", " (List.map Addr.to_string (Addr.Set.elements s))

let addr_set = Alcotest.testable (Fmt.of_to_string set_to_string) Addr.Set.equal

(* ------------------------------------------------------------------ *)
(* The CLI edit loop refreshes the scope, not the fleet               *)
(* ------------------------------------------------------------------ *)

let api_calls_of out =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"Applied " l)
      (String.split_on_char '\n' out)
  in
  Scanf.sscanf line "Applied %d change(s) in %f simulated seconds (%d API calls"
    (fun _ _ calls -> calls)

let test_cli_edit () =
  let tf = temp_path ".tf" and state_path = temp_path ".cls" in
  let src = Workload.fleet ~resources:200 () in
  Io_util.write_file tf src;
  check int_ "deploy exits 0" 0 (Cli.apply ~io:quiet ~file:tf ~state_path ());
  let recorded = Session.load_state state_path in
  Io_util.write_file tf
    (set_attr src ~rtype:"aws_instance" ~name:(group 3) ~key:"instance_type"
       ~value:"\"t3.large\"");
  let out = Buffer.create 1024 in
  check int_ "edit exits 0" 0
    (Cli.apply ~io:{ Cli.out = Buffer.add_string out; err = ignore } ~file:tf
       ~state_path ());
  let calls = api_calls_of (Buffer.contents out) in
  check bool_ (Printf.sprintf "%d API calls <= 20" calls) true (calls <= 20);
  (* the same apply with a full refresh, on an identically restored cloud *)
  let cloud, state = Session.cloud_from_state recorded ~seed:42 in
  let plan = Session.plan_against ~state tf in
  let full =
    Executor.apply cloud
      ~config:{ Executor.cloudless_config with refresh = Executor.Refresh_full }
      ~state ~plan ()
  in
  let scoped = Session.load_state state_path in
  Sys.remove tf;
  Sys.remove state_path;
  check string_ "state equals the full-refresh state except serial"
    (State.to_string (State.with_serial full.Executor.state 0))
    (State.to_string (State.with_serial scoped 0));
  check bool_ "the scoped run writes fewer rows" true
    (State.serial scoped < State.serial full.Executor.state)

(* ------------------------------------------------------------------ *)
(* A shared dependency's consumers are refreshed, nothing else        *)
(* ------------------------------------------------------------------ *)

let test_shared_dependency () =
  let src = Workload.fleet ~resources:40 () in
  let cloud, state = deploy src in
  (* drift on an instance behind the edited subnet and on one outside *)
  let drift a =
    let r = Option.get (State.find_opt state a) in
    match
      Cloud.mutate_oob cloud ~script:"console" ~cloud_id:r.State.cloud_id
        ~attr:"user_data" ~value:(Value.Vstring "drifted")
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "mutate_oob"
  in
  drift (inst 1 0);
  drift (inst 2 0);
  let edited = add_tags src ~rtype:"aws_subnet" ~name:(group 1) in
  let plan = Plan.make ~state (expand ~state edited) in
  let expected =
    addrs
      ([
         single "aws_subnet" (group 1);
         single "aws_vpc" "fleet";
         single "aws_security_group" (group 1);
       ]
      @ List.init 6 (inst 1))
  in
  check addr_set "scope: the subnet, its consumers and their dependencies"
    expected (Plan.refresh_scope plan);
  let report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state ~plan ()
  in
  check bool_ "update ok" true (Executor.succeeded report);
  check int_ "one read per scoped row" (Addr.Set.cardinal expected)
    report.Executor.refresh_reads;
  let user_data a =
    Smap.find_opt "user_data"
      (State.attrs (Option.get (State.find_opt report.Executor.state a)))
  in
  check bool_ "consumer re-read" true
    (user_data (inst 1 0) = Some (Value.Vstring "drifted"));
  check bool_ "instance outside the scope not re-read" true
    (user_data (inst 2 0) = None)

(* ------------------------------------------------------------------ *)
(* Deletes do not seed the scope                                      *)
(* ------------------------------------------------------------------ *)

let test_destroy_reads_nothing () =
  let tf = temp_path ".tf" and state_path = temp_path ".cls" in
  let jsonl = temp_path ".jsonl" in
  Io_util.write_file tf (Workload.fleet ~resources:40 ());
  check int_ "deploy exits 0" 0 (Cli.apply ~io:quiet ~file:tf ~state_path ());
  check int_ "destroy exits 0" 0
    (Cli.destroy ~io:quiet ~trace_path:jsonl ~state_path ());
  let spans = Trace.read_jsonl ~path:jsonl in
  List.iter Sys.remove [ tf; state_path; jsonl ];
  let execute = List.find (fun s -> s.Trace.name = "execute") spans in
  check int_ "no refresh reads" 0 (Trace.counter execute "refresh_reads");
  check int_ "one call per delete" 40 (Trace.counter execute "api_calls")

(* ------------------------------------------------------------------ *)
(* The fast scope equals Dag.impact_scope over the whole plan         *)
(* ------------------------------------------------------------------ *)

(* Oracle: a Dag of every change, edges from each non-delete change to
   the non-delete changes its deps name, seeded by the non-delete
   actionable addresses, limited to the recorded rows. *)
let oracle_scope ~state (plan : Plan.t) =
  let live =
    List.filter (fun c -> c.Plan.action <> Plan.Delete) plan.Plan.changes
  in
  let names d (x : Plan.change) =
    Addr.equal x.Plan.addr d
    || (d.Addr.key = Addr.Knone && Addr.same_base x.Plan.addr d)
  in
  let g =
    Dag.of_edges
      (List.map (fun (c : Plan.change) -> (c.Plan.addr, ())) plan.Plan.changes)
      (List.concat_map
         (fun (c : Plan.change) ->
           List.filter_map
             (fun (x : Plan.change) ->
               if
                 (not (Addr.equal x.Plan.addr c.Plan.addr))
                 && List.exists (fun d -> names d x) c.Plan.deps
               then Some (c.Plan.addr, x.Plan.addr)
               else None)
             live)
         live)
  in
  let seeds =
    List.filter_map
      (fun (c : Plan.change) ->
        if Plan.is_noop c then None else Some c.Plan.addr)
      live
  in
  let recorded =
    addrs (List.map (fun r -> r.State.addr) (State.resources state))
  in
  Addr.Set.inter (Dag.impact_scope g seeds) recorded

(* An edit rewrites one attribute line of a block, or gives the block
   [tags]. *)
type edit = Set of string * string * string * string | Tags of string * string

let show_edit = function
  | Set (rtype, name, key, value) ->
      Printf.sprintf "%s.%s.%s = %s" rtype name key value
  | Tags (rtype, name) -> Printf.sprintf "%s.%s tags" rtype name

let apply_edit src = function
  | Set (rtype, name, key, value) -> set_attr src ~rtype ~name ~key ~value
  | Tags (rtype, name) -> add_tags src ~rtype ~name

(* 1-3 of [slots], each slot a different line or block. *)
let pick slots =
  let open QCheck.Gen in
  shuffle_l slots >>= fun slots ->
  int_range 1 (min 3 (List.length slots)) >>= fun k ->
  flatten_l (List.filteri (fun i _ -> i < k) slots)

(* [Workload.fleet] of 1-6 groups: singleton subnets, security groups
   and target groups, one counted instance block per group. *)
let fleet_case =
  let open QCheck.Gen in
  int_range 1 6 >>= fun groups ->
  let slots g =
    let name = group g in
    [
      map
        (fun t ->
          Set ("aws_instance", name, "instance_type", Printf.sprintf "%S" t))
        (oneofl [ "t3.medium"; "t3.large" ]);
      map
        (fun n -> Set ("aws_instance", name, "count", string_of_int n))
        (int_range 0 9);
      return (Tags ("aws_subnet", name));
      return
        (Set
           ( "aws_subnet",
             name,
             "cidr_block",
             Printf.sprintf "\"10.200.%d.0/26\"" g ));
    ]
  in
  pick
    (return (Tags ("aws_vpc", "fleet"))
    :: List.concat_map slots (List.init groups Fun.id))
  >|= fun edits ->
  ( Printf.sprintf "fleet, %d groups" groups,
    Workload.fleet ~resources:(1 + (9 * groups)) (),
    edits )

(* [Workload.web_tier]: counted subnets consumed by counted instances,
   the load balancer and the db subnet group — instance-keyed
   dependencies, and consumers of consumers. *)
let web_case =
  let open QCheck.Gen in
  int_range 1 3 >>= fun subnets ->
  int_range 1 5 >>= fun web_count ->
  bool >>= fun with_lb ->
  bool >>= fun with_db ->
  let slots =
    [
      return (Set ("aws_instance", "web", "instance_type", "\"t3.large\""));
      map
        (fun n -> Set ("aws_instance", "web", "count", string_of_int n))
        (int_range 0 8);
      return (Tags ("aws_subnet", "app"));
      return (Tags ("aws_vpc", "main"));
      return (Tags ("aws_security_group", "web"));
    ]
    @ (if with_lb then [ return (Set ("aws_lb", "front", "name", "\"lb2\"")) ]
       else [])
    @
    if with_db then
      [ return (Set ("aws_db_subnet_group", "db", "name", "\"db2\"")) ]
    else []
  in
  pick slots >|= fun edits ->
  ( Printf.sprintf "web tier, %d subnets, %d web, lb %b, db %b" subnets web_count
      with_lb with_db,
    Workload.web_tier ~subnets ~web_count ~with_lb ~with_db (),
    edits )

let arb_case =
  QCheck.make
    (QCheck.Gen.oneof [ fleet_case; web_case ])
    ~print:(fun (desc, _, edits) ->
      Printf.sprintf "%s: %s" desc
        (String.concat "; " (List.map show_edit edits)))

let prop_scope_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"refresh_scope = Dag.impact_scope oracle"
    arb_case (fun (_, src, edits) ->
      let _, state = deploy src in
      let edited = List.fold_left apply_edit src edits in
      let plan = Plan.make ~state (expand ~state edited) in
      let fast = Plan.refresh_scope plan in
      let oracle = oracle_scope ~state plan in
      if not (Addr.Set.equal fast oracle) then
        QCheck.Test.fail_reportf "fast {%s}@.oracle {%s}" (set_to_string fast)
          (set_to_string oracle);
      true)

let suites =
  [
    ( "deploy.scoped-refresh",
      [
        Alcotest.test_case "cli edit reads the scope" `Quick test_cli_edit;
        Alcotest.test_case "shared dependency edit" `Quick test_shared_dependency;
        Alcotest.test_case "destroy reads nothing" `Quick
          test_destroy_reads_nothing;
        QCheck_alcotest.to_alcotest prop_scope_matches_oracle;
      ] );
  ]
