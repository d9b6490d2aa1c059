(* Workload-generator sanity plus cross-cutting property tests:
   every generated topology parses, validates, and deploys; random
   fleets deploy with correct bookkeeping under both engines; the lock
   manager never double-grants. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Dag = Cloudless_graph.Dag
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module Workload = Cloudless_workload.Workload
module Lock_manager = Cloudless_lock.Lock_manager
module Prng = Cloudless_sim.Prng

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let generators =
  [
    ("web_tier", fun () -> Workload.web_tier ());
    ("web_tier minimal", fun () -> Workload.web_tier ~with_lb:false ~with_db:false ());
    ("microservices", fun () -> Workload.microservices ());
    ("data_pipeline", fun () -> Workload.data_pipeline ());
    ("multi_region", fun () -> Workload.multi_region ());
    ("layered", fun () -> Workload.layered ~width:3 ~depth:4 ());
    ("fleet", fun () -> Workload.fleet ~resources:40 ());
    ("chain", fun () -> Workload.chain ~resources:20 ());
  ]

let test_generators_validate () =
  List.iter
    (fun (name, gen) ->
      let report = Validate.validate_source ~file:name (gen ()) in
      let errors = Diagnostic.errors report.Validate.diagnostics in
      if errors <> [] then
        Alcotest.failf "%s: %s" name (Diagnostic.to_string (List.hd errors)))
    generators

let test_generators_deploy () =
  List.iter
    (fun (name, gen) ->
      let cloud =
        Cloud.create
          ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
          ~seed:3 ()
      in
      let cfg = Config.parse ~file:name (gen ()) in
      let instances = (Eval.expand cfg).Eval.instances in
      let plan = Plan.make ~state:State.empty instances in
      let report =
        Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
          ~plan ()
      in
      if not (Executor.succeeded report) then
        Alcotest.failf "%s failed to deploy: %s" name
          (match report.Executor.failed with
          | f :: _ -> f.Executor.reason
          | [] -> "skipped resources");
      check bool_ (name ^ " cloud matches state") true
        (Cloud.resource_count cloud = State.size report.Executor.state))
    generators

let test_generators_deterministic () =
  List.iter
    (fun (name, gen) ->
      check bool_ (name ^ " deterministic") true (gen () = gen ()))
    generators

let test_multi_cloud_deploys () =
  (* one program spanning aws + azurerm + google providers *)
  let src = Workload.multi_cloud () in
  let report = Validate.validate_source ~file:"mc" src in
  check int_ "validates" 0 (Diagnostic.count_errors report.Validate.diagnostics);
  let cloud =
    Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
      ~seed:3 ()
  in
  let cfg = Config.parse ~file:"mc" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let providers =
    List.sort_uniq compare
      (List.map (fun (i : Eval.instance) -> i.Eval.provider) instances)
  in
  check (Alcotest.list Alcotest.string) "three providers"
    [ "aws"; "azurerm"; "google" ] providers;
  let plan = Plan.make ~state:State.empty instances in
  let deploy_report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:State.empty
      ~plan ()
  in
  check bool_ "deploys across providers" true (Executor.succeeded deploy_report)

(* Golden check for the E11/E12 scale workload: a 10k fleet must keep
   producing exactly the same plan shape after front-half rewiring. *)
let test_fleet_10k_plan_golden () =
  let src = Workload.fleet ~resources:10_000 () in
  let cfg = Config.parse ~file:"fleet.tf" src in
  let instances = (Eval.expand cfg).Eval.instances in
  check int_ "10000 instances" 10_000 (List.length instances);
  let plan = Plan.make ~state:State.empty instances in
  let s = Plan.summarize plan in
  check int_ "creates" 10_000 s.Plan.to_create;
  check int_ "updates" 0 s.Plan.to_update;
  check int_ "replaces" 0 s.Plan.to_replace;
  check int_ "deletes" 0 s.Plan.to_delete;
  let g = Dag.of_instances instances in
  check int_ "graph nodes" 10_000 (Dag.size g);
  check int_ "graph depth" 3 (Dag.depth g);
  (* against a state mirroring the fleet, everything is a noop and the
     cloud-id index answers reverse lookups *)
  let populated =
    List.fold_left
      (fun st (i : Eval.instance) ->
        State.add st
          {
            State.addr = i.Eval.addr;
            cloud_id = "cid-" ^ Addr.to_string i.Eval.addr;
            rtype = i.Eval.addr.Addr.rtype;
            region = "us-east-1";
            recorded = State.Recorded.of_map i.Eval.attrs;
            deps = [];
          })
      State.empty instances
  in
  check bool_ "mirror state plans to noop" true
    (Plan.is_empty (Plan.make ~state:populated instances));
  check bool_ "cloud-id index answers" true
    (State.find_by_cloud_id populated "cid-aws_vpc.fleet" <> None)

(* ------------------------------------------------------------------ *)
(* Random-fleet deployment property                                    *)
(* ------------------------------------------------------------------ *)

(* a random (but type-correct) fleet: a vpc, a few subnets, instances
   spread across them *)
let random_fleet_src prng =
  let subnets = 1 + Prng.int prng 4 in
  let instances = Prng.int prng 12 in
  Printf.sprintf
    {|
resource "aws_vpc" "v" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "s" {
  count      = %d
  vpc_id     = aws_vpc.v.id
  cidr_block = cidrsubnet(aws_vpc.v.cidr_block, 8, count.index)
  region     = "us-east-1"
}
resource "aws_instance" "i" {
  count         = %d
  ami           = "ami-r"
  instance_type = "t3.small"
  subnet_id     = aws_subnet.s[count.index %% %d].id
  region        = "us-east-1"
}
|}
    subnets instances subnets

let prop_deploy_bookkeeping engine_name engine =
  QCheck.Test.make ~count:25
    ~name:
      (Printf.sprintf "%s: applied = plan size; state = cloud (random fleets)"
         engine_name)
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let prng = Prng.create seed in
      let src = random_fleet_src prng in
      let cloud =
        Cloud.create
          ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
          ~seed ()
      in
      let cfg = Config.parse ~file:"rand.tf" src in
      let instances = (Eval.expand cfg).Eval.instances in
      let plan = Plan.make ~state:State.empty instances in
      let expected = List.length (Plan.actionable plan) in
      let report =
        Executor.apply cloud ~config:engine ~state:State.empty ~plan ()
      in
      Executor.succeeded report
      && List.length report.Executor.applied = expected
      && State.size report.Executor.state = List.length instances
      && Cloud.resource_count cloud = List.length instances)

(* dependency order is respected in the activity log, for random fleets *)
let prop_deploy_order =
  QCheck.Test.make ~count:20 ~name:"creates respect dependency order"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let prng = Prng.create seed in
      let src = random_fleet_src prng in
      let cloud =
        Cloud.create
          ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
          ~seed ()
      in
      let cfg = Config.parse ~file:"rand.tf" src in
      let instances = (Eval.expand cfg).Eval.instances in
      let plan = Plan.make ~state:State.empty instances in
      let report =
        Executor.apply cloud ~config:Executor.cloudless_config
          ~state:State.empty ~plan ()
      in
      if not (Executor.succeeded report) then false
      else begin
        (* creation completion times from the log, per type *)
        let log = Cloudless_sim.Activity_log.all (Cloud.log cloud) in
        let times ty =
          List.filter_map
            (fun (e : Cloudless_sim.Activity_log.entry) ->
              if
                e.Cloudless_sim.Activity_log.rtype = ty
                && e.Cloudless_sim.Activity_log.op = Cloudless_sim.Activity_log.Log_create
              then Some e.Cloudless_sim.Activity_log.time
              else None)
            log
        in
        let vpc_done = List.fold_left Float.max 0. (times "aws_vpc") in
        let first_subnet =
          List.fold_left Float.min infinity (times "aws_subnet")
        in
        let first_instance =
          List.fold_left Float.min infinity (times "aws_instance")
        in
        vpc_done <= first_subnet
        && (first_instance = infinity || first_subnet <= first_instance)
      end)

(* second apply over the deployed state is always a no-op *)
let prop_idempotent =
  QCheck.Test.make ~count:20 ~name:"apply is idempotent (random fleets)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let prng = Prng.create seed in
      let src = random_fleet_src prng in
      let cloud =
        Cloud.create
          ~config:(Cloudless_schema.Cloud_rules.config_with_checks ())
          ~seed ()
      in
      let cfg = Config.parse ~file:"rand.tf" src in
      let instances = (Eval.expand cfg).Eval.instances in
      let plan = Plan.make ~state:State.empty instances in
      let report =
        Executor.apply cloud ~config:Executor.cloudless_config
          ~state:State.empty ~plan ()
      in
      let env =
        {
          Eval.default_env with
          Eval.state_lookup = (fun a -> State.lookup report.Executor.state a);
        }
      in
      let instances2 = (Eval.expand ~env cfg).Eval.instances in
      Plan.is_empty (Plan.make ~state:report.Executor.state instances2))

(* ------------------------------------------------------------------ *)
(* Lock-manager invariant                                              *)
(* ------------------------------------------------------------------ *)

(* random acquire/release interleavings never leave one key held by
   two owners and never lose a grant *)
let prop_lock_exclusive =
  QCheck.Test.make ~count:100 ~name:"lock manager never double-grants"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let lm = Lock_manager.create Lock_manager.Per_resource in
      let keys =
        Array.init 5 (fun i ->
            Addr.make ~rtype:"t_x" ~rname:(Printf.sprintf "k%d" i) ())
      in
      let held_by : (string, Addr.t list) Hashtbl.t = Hashtbl.create 8 in
      let violation = ref false in
      let grants = ref 0 and requests = ref 0 in
      let owners = [ "a"; "b"; "c" ] in
      for _ = 1 to 40 do
        let owner = Prng.choose prng owners in
        if Prng.bernoulli prng 0.4 then begin
          (* release everything owner holds *)
          Hashtbl.remove held_by owner;
          Lock_manager.release lm ~owner
        end
        else begin
          let want =
            List.init (1 + Prng.int prng 2) (fun _ ->
                keys.(Prng.int prng (Array.length keys)))
            |> List.sort_uniq Addr.compare
          in
          incr requests;
          Lock_manager.acquire lm ~owner ~keys:want (fun () ->
              incr grants;
              (* exclusivity check at grant time *)
              Hashtbl.iter
                (fun o ks ->
                  if o <> owner then
                    List.iter
                      (fun k ->
                        if List.exists (Addr.equal k) ks then violation := true)
                      want)
                held_by;
              let existing =
                Option.value ~default:[] (Hashtbl.find_opt held_by owner)
              in
              Hashtbl.replace held_by owner (want @ existing))
        end
      done;
      (* drain: release everyone until the queue empties *)
      let rec drain n =
        if n = 0 then ()
        else begin
          List.iter
            (fun o ->
              Hashtbl.remove held_by o;
              Lock_manager.release lm ~owner:o)
            owners;
          if Lock_manager.queue_length lm > 0 then drain (n - 1)
        end
      in
      drain 50;
      (not !violation)
      && Lock_manager.queue_length lm = 0
      && !grants = !requests)

(* ------------------------------------------------------------------ *)
(* Printer/parser fixpoint on random generated configurations          *)
(* ------------------------------------------------------------------ *)

(* build a random but well-formed config programmatically *)
let random_config prng =
  let n_vpcs = 1 + Prng.int prng 2 in
  let buf = Buffer.create 512 in
  for v = 0 to n_vpcs - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "resource \"aws_vpc\" \"v%d\" {\n  cidr_block = \"10.%d.0.0/16\"\n  region     = \"us-east-1\"\n}\n"
         v v);
    let n_subnets = Prng.int prng 4 in
    for s = 0 to n_subnets - 1 do
      Buffer.add_string buf
        (Printf.sprintf
           "resource \"aws_subnet\" \"v%d_s%d\" {\n  vpc_id     = aws_vpc.v%d.id\n  cidr_block = cidrsubnet(aws_vpc.v%d.cidr_block, 8, %d)\n  region     = \"us-east-1\"\n}\n"
           v s v v s)
    done
  done;
  if Prng.bernoulli prng 0.5 then
    Buffer.add_string buf
      "output \"vpcs\" { value = [aws_vpc.v0.cidr_block] }\n";
  Buffer.contents buf

let expansion_fingerprint src =
  let cfg = Config.parse ~file:"fuzz.tf" src in
  (Eval.expand cfg).Eval.instances
  |> List.map (fun (i : Eval.instance) ->
         ( Addr.to_string i.Eval.addr,
           Value.Smap.bindings i.Eval.attrs
           |> List.map (fun (k, v) -> (k, Value.show v)) ))
  |> List.sort compare

let prop_print_parse_fixpoint =
  QCheck.Test.make ~count:40 ~name:"config print/parse fixpoint + same expansion"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let src = random_config prng in
      let printed = Config.to_string (Config.parse ~file:"a.tf" src) in
      let printed2 = Config.to_string (Config.parse ~file:"b.tf" printed) in
      printed = printed2
      && expansion_fingerprint src = expansion_fingerprint printed)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "workload.generators",
      [
        Alcotest.test_case "all validate" `Quick test_generators_validate;
        Alcotest.test_case "all deploy" `Slow test_generators_deploy;
        Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
        Alcotest.test_case "multi-cloud" `Quick test_multi_cloud_deploys;
        Alcotest.test_case "10k fleet plan golden" `Slow
          test_fleet_10k_plan_golden;
      ] );
    ( "props.deploy",
      [
        qtest (prop_deploy_bookkeeping "baseline" Executor.baseline_config);
        qtest (prop_deploy_bookkeeping "cloudless" Executor.cloudless_config);
        qtest prop_deploy_order;
        qtest prop_idempotent;
        qtest prop_print_parse_fixpoint;
      ] );
    ( "props.lock",
      [ qtest prop_lock_exclusive ] );
  ]
