(* Multi-shard fleet tests (E15): consistent-hash routing properties
   (ring stability under growth, single ownership), push-based drift
   with cross-shard routing and a golden trace, shard-granularity crash
   resume with digest equality against an uncrashed run, admission
   backpressure, the labeled metrics scopes the per-shard
   observability rides on, and a golden state digest. *)

module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Router = Cloudless_controlplane.Router
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Trace = Cloudless_obs.Trace
module Metrics = Cloudless_obs.Metrics
module Cloud_rules = Cloudless_schema.Cloud_rules
module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let fresh_cloud ?(seed = 42) () =
  Cloud.create
    ~config:(Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~read_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~seed ()

let tenant_names n = List.init n (Printf.sprintf "tenant%d")

(* ------------------------------------------------------------------ *)
(* Router properties                                                   *)
(* ------------------------------------------------------------------ *)

(* Growing the ring from n to n+1 shards must remap only ~1/(n+1) of
   tenants.  2.5x the ideal fraction is a generous, non-flaky bound for
   64 vnodes/shard; the hash is deterministic, so a pass is stable. *)
let prop_ring_stability =
  QCheck.Test.make ~count:20 ~name:"adding a shard moves <= ~1/N tenants"
    QCheck.(pair (int_range 2 8) (int_range 100 300))
    (fun (shards, tenants) ->
      let before = Router.create ~shards () in
      let after = Router.create ~shards:(shards + 1) () in
      let moved =
        List.length
          (List.filter
             (fun t -> Router.ring_assign before t <> Router.ring_assign after t)
             (tenant_names tenants))
      in
      float_of_int moved
      <= 2.5 *. float_of_int tenants /. float_of_int (shards + 1))

(* Assignment is a total function onto [0, shards): every tenant has
   exactly one owner, and pins never escape the range. *)
let prop_single_owner =
  QCheck.Test.make ~count:30 ~name:"every tenant owned by exactly one shard"
    QCheck.(pair (int_range 1 9) (int_range 1 50))
    (fun (shards, tenants) ->
      let r = Router.create ~shards () in
      List.for_all
        (fun t ->
          let s = Router.assign r t in
          s >= 0 && s < shards && Router.assign r t = s)
        (tenant_names tenants))

(* A registered deployment lives in exactly one shard's list. *)
let test_fleet_single_registration () =
  let fleet =
    Fleet.create ~cloud:(fresh_cloud ()) ~shards:4 Shard.fleet_service
  in
  List.iter
    (fun t ->
      ignore
        (Fleet.add_deployment fleet ~tenant:t ~dname:"d0"
           ~src:(Scenario.fleet_src Scenario.default ~wave:0)))
    (tenant_names 12);
  List.iter
    (fun t ->
      let owners =
        List.filter
          (fun s -> Shard.find_deployment s ~tenant:t ~dname:"d0" <> None)
          (Fleet.shards fleet)
      in
      check int_ (t ^ " registered on exactly one shard") 1
        (List.length owners))
    (tenant_names 12)

let test_partition_covers_all_shards () =
  (* cloud ids hash over a different domain than tenants; with a few
     dozen ids every shard should classify something *)
  let r = Router.create ~shards:4 () in
  let hit = Array.make 4 false in
  List.iter
    (fun i -> hit.(Router.partition r (Printf.sprintf "instance-%06x" i)) <- true)
    (List.init 64 Fun.id);
  check bool_ "all partitions used" true (Array.for_all Fun.id hit)

(* ------------------------------------------------------------------ *)
(* Golden cross-shard drift trace                                      *)
(* ------------------------------------------------------------------ *)

(* One tenant on a two-shard fleet in [Subscribe] mode.  An OOB
   mutation at t=300 must produce: the apply's request span, then a
   scoped reconcile span — and the detection must be *instant* (the
   subscription classifies the entry inside the very append), with the
   activity log never polled. *)
let test_golden_subscribe_trace () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let fleet = Fleet.create ~cloud ~trace ~shards:2 Shard.fleet_service in
  let scn = { Scenario.default with Scenario.resources = 12 } in
  let dep =
    Fleet.add_deployment fleet ~tenant:"acme" ~dname:"prod"
      ~src:(Scenario.fleet_src scn ~wave:0)
  in
  ignore
    (Fleet.submit_request fleet dep ~src:(Scenario.fleet_src scn ~wave:0));
  let drifted = ref "" in
  Cloud.schedule cloud ~delay:300. (fun () ->
      let row =
        List.find
          (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
          (State.resources dep.Shard.state)
      in
      drifted := row.State.cloud_id;
      match
        Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:row.State.cloud_id
          ~attr:"instance_type"
          ~value:(Cloudless_hcl.Value.Vstring "t2.nano")
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "oob mutation failed");
  Fleet.run fleet ~until:400.;
  let golden =
    List.map
      (fun (s : Trace.span) ->
        let scope =
          try List.assoc "scope" s.Trace.meta with Not_found -> "-"
        in
        Printf.sprintf "%s scope=%s" s.Trace.name scope)
      (spans ())
  in
  check
    Alcotest.(list string)
    "span sequence" [ "request scope=-"; "reconcile scope=3" ] golden;
  (match Fleet.drift_detections fleet with
  | [ (cid, at) ] ->
      check Alcotest.string "drifted resource detected" !drifted cid;
      check (Alcotest.float 1e-9) "detection is instant (push, not poll)" 300.
        at
  | l -> Alcotest.failf "expected one detection, got %d" (List.length l));
  let m = Fleet.metrics fleet in
  let owner = Router.assign (Fleet.router fleet) "acme" in
  let classifier = Router.partition (Fleet.router fleet) !drifted in
  check int_ "cross-shard hop counted iff classifier is not the owner"
    (if owner <> classifier then 1 else 0)
    (Metrics.counter m "cross_shard_routed")

(* A multi-tenant scenario routinely crosses shards, and the converged
   digest is identical at any shard count. *)
let test_cross_shard_routing_and_digest () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 8;
      resources = 8;
      requests_per_tenant = 2;
      request_interval = 300.;
      drift_events = 8;
      drift_period = 60.;
      policy_period = 0.;
      duration = 1800.;
    }
  in
  let run shards =
    let config = Scenario.service_config { scn with Scenario.shards } Shard.fleet_service in
    let fleet = ref (Fleet.create ~cloud:(fresh_cloud ()) ~shards config) in
    let injections = Scenario.install_fleet scn fleet in
    Fleet.run !fleet ~until:scn.Scenario.duration;
    check int_ "all injections fired" 8 (List.length !injections);
    check int_ "every injection detected" 8
      (List.length (Fleet.drift_detections !fleet));
    (!fleet, Metrics.counter (Fleet.metrics !fleet) "cross_shard_routed")
  in
  let f2, crossed2 = run 2 in
  let f3, _ = run 3 in
  check bool_ "some drift crossed shards" true (crossed2 > 0);
  check Alcotest.string "digest invariant under shard count"
    (Fleet.state_digest f2) (Fleet.state_digest f3)

(* ------------------------------------------------------------------ *)
(* Crash resume at shard granularity                                   *)
(* ------------------------------------------------------------------ *)

let test_fleet_crash_resume () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 6;
      shards = 2;
      resources = 8;
      requests_per_tenant = 1;
      drift_events = 0;
      policy_period = 0.;
      duration = 1200.;
    }
  in
  let config = Scenario.service_config scn Shard.fleet_service in
  let run ?crash () =
    let fleet = ref (Fleet.create ~cloud:(fresh_cloud ()) ~shards:2 config) in
    ignore (Scenario.install_fleet scn fleet);
    (match crash with
    | Some k -> Fleet.set_crash !fleet (Failure.Crash_after k)
    | None -> ());
    let crashed =
      match Fleet.run !fleet ~until:scn.Scenario.duration with
      | () -> false
      | exception Failure.Engine_crashed _ -> true
    in
    (fleet, crashed)
  in
  let ref_fleet, ref_crashed = run () in
  check bool_ "reference run stayed up" false ref_crashed;
  let fleet_ref, crashed = run ~crash:10 () in
  check bool_ "crash gate tripped" true crashed;
  let fresh, reports = Fleet.resume !fleet_ref in
  fleet_ref := fresh;
  check int_ "one recovery report per deployment" 6 (List.length reports);
  check int_ "successor keeps the shard count" 2 (Fleet.shard_count fresh);
  Fleet.run fresh ~until:scn.Scenario.duration;
  check bool_ "no orphans" true (Fleet.orphans fresh = []);
  check int_ "exact fleet, no duplicates" 48
    (Fleet.managed_resource_count fresh);
  check Alcotest.string "digest equals the uncrashed run"
    (Fleet.state_digest !ref_fleet) (Fleet.state_digest fresh)

(* The cross-tenant orphan audit: a resource an IaC engine created
   that no deployment of the fleet tracks is reported by its cloud id;
   the deployments' own resources and an out-of-band create are not. *)
let test_orphan_audit () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 3;
      shards = 2;
      resources = 4;
      requests_per_tenant = 1;
      drift_events = 0;
      policy_period = 0.;
      duration = 600.;
    }
  in
  let cloud = fresh_cloud () in
  let fleet =
    ref
      (Fleet.create ~cloud ~shards:2
         (Scenario.service_config scn Shard.fleet_service))
  in
  ignore (Scenario.install_fleet scn fleet);
  Fleet.run !fleet ~until:scn.Scenario.duration;
  check int_ "every tenant's fleet is managed" 12
    (Fleet.managed_resource_count !fleet);
  check (Alcotest.list Alcotest.string) "a settled fleet has no orphans" []
    (Fleet.orphans !fleet);
  let attrs = Smap.singleton "cidr_block" (Value.Vstring "10.9.0.0/16") in
  let stray =
    match
      Cloud.run_sync cloud ~actor:(Cloudless_sim.Activity_log.Iac_engine "stray")
        (Cloud.Create { rtype = "aws_vpc"; region = "us-east-1"; attrs })
    with
    | Ok live -> Value.to_string (Smap.find "id" live)
    | Error _ -> Alcotest.fail "the stray create must land"
  in
  ignore
    (Cloud.create_oob cloud ~script:"portal" ~rtype:"aws_vpc"
       ~region:"us-east-1" ~attrs);
  check (Alcotest.list Alcotest.string) "the untracked IaC create, by id"
    [ stray ] (Fleet.orphans !fleet)

(* ------------------------------------------------------------------ *)
(* Admission backpressure                                              *)
(* ------------------------------------------------------------------ *)

let burst_fleet admission =
  let config =
    { Shard.fleet_service with Shard.max_queue_depth = 1; admission }
  in
  let fleet = Fleet.create ~cloud:(fresh_cloud ()) ~shards:1 config in
  let dep =
    Fleet.add_deployment fleet ~tenant:"hot" ~dname:"d0"
      ~src:(Scenario.fleet_src Scenario.default ~wave:0)
  in
  (fleet, dep)

(* Queue depth counts queued + lock-blocked work, not the in-flight
   holder: request 1 executes immediately, request 2 becomes the lock
   waiter that fills the depth-1 bound, requests 3-4 are over it. *)
let test_backpressure_defer () =
  let fleet, dep = burst_fleet Shard.Defer in
  let src = Scenario.fleet_src Scenario.default ~wave:0 in
  let outcomes = List.init 4 (fun _ -> Fleet.submit_request fleet dep ~src) in
  (match outcomes with
  | [ `Accepted _; `Accepted _; `Deferred _; `Deferred _ ] -> ()
  | _ -> Alcotest.fail "expected 2 admitted then 2 deferred");
  Fleet.run fleet ~until:600.;
  let m = Fleet.metrics fleet in
  check int_ "every request eventually completed" 4
    (Metrics.counter m "requests_done");
  check bool_ "deferrals recorded" true
    (Metrics.counter m "requests_deferred" >= 2)

let test_backpressure_reject () =
  let fleet, dep = burst_fleet Shard.Reject in
  let src = Scenario.fleet_src Scenario.default ~wave:0 in
  let outcomes = List.init 4 (fun _ -> Fleet.submit_request fleet dep ~src) in
  let rejected =
    List.length (List.filter (function `Rejected -> true | _ -> false) outcomes)
  in
  check int_ "burst tail rejected" 2 rejected;
  Fleet.run fleet ~until:600.;
  let m = Fleet.metrics fleet in
  check int_ "only the admitted requests ran" 2
    (Metrics.counter m "requests_done");
  check int_ "rejections recorded" 2 (Metrics.counter m "requests_rejected")

(* The scenario file is the one place a serve run is configured: shard
   count, admission bound and policy, hot tenants, breakers, chaos
   episodes and the horizon are all read from it. *)
let test_serve_reads_scenario_settings () =
  let path = Filename.temp_file "serve" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cloudless.Io_util.write_file path
        "tenants = 4\n\
         resources = 8\n\
         requests_per_tenant = 2\n\
         request_interval = 600\n\
         shards = 3\n\
         max_queue_depth = 1\n\
         admission = reject\n\
         hot_tenants = 1\n\
         breaker = on\n\
         episode = kind=outage start=30 end=200\n\
         duration = 1200\n";
      let out = Buffer.create 1024 and err = Buffer.create 64 in
      let io =
        { Cloudless.Cli.out = Buffer.add_string out; err = Buffer.add_string err }
      in
      let code =
        Cloudless.Cli.serve ~io ~metrics_path:Filename.null ~scenario_path:path ()
      in
      let out = Buffer.contents out in
      let has sub = Test_fixtures.contains_substring ~sub out in
      check int_ "exit code" 0 code;
      check Alcotest.string "stderr" "" (Buffer.contents err);
      check bool_ "horizon from duration" true
        (has "after 1200 simulated seconds");
      check bool_ "shard count from shards" true (has "Fleet: 3 shard(s)");
      check bool_ "episode and breaker from the file" true
        (has "Chaos: 1 episode(s)");
      let rejected =
        List.find_map
          (fun p -> Scanf.sscanf_opt (String.trim p) "rejected: %d" Fun.id)
          (String.split_on_char ';' out)
      in
      match rejected with
      | Some n ->
          check bool_ (Printf.sprintf "requests rejected (%d)" n) true (n > 0)
      | None -> Alcotest.failf "no rejected count in:\n%s" out)

(* `serve` prints the fleet's breaker counts, summed over its shards,
   and each bare gauge of the snapshot that a shard writes at the end
   of the run holds the fleet total of its [.shardN] gauges.  Here the
   outage fast-fails on shard0 only, so a bare gauge that kept
   whichever shard wrote last would read 0. *)
let test_serve_sums_breaker_counts () =
  let scn = Filename.temp_file "chaos" ".scn"
  and metrics = Filename.temp_file "chaos" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ scn; metrics ])
    (fun () ->
      Cloudless.Io_util.write_file scn
        "tenants = 4\n\
         resources = 8\n\
         requests_per_tenant = 2\n\
         request_interval = 900\n\
         duration = 3600\n\
         shards = 2\n\
         breaker = on\n\
         episode = kind=outage start=880 end=1100\n\
         episode = kind=spot start=1700 count=3\n";
      let out = Buffer.create 1024 in
      let io = { Cloudless.Cli.out = Buffer.add_string out; err = ignore } in
      check int_ "exit code" 0
        (Cloudless.Cli.serve ~io ~metrics_path:metrics ~scenario_path:scn ());
      let printed =
        List.find_map
          (fun p -> Scanf.sscanf_opt (String.trim p) "%d fast-fail(s)" Fun.id)
          (String.split_on_char ',' (Buffer.contents out))
      in
      let json = In_channel.with_open_text metrics In_channel.input_all in
      (* a gauge's last value, read off the snapshot's text *)
      let gauge name =
        let key = Printf.sprintf "\"%s\":{\"type\":\"gauge\",\"last\":" name in
        let k = String.length key and n = String.length json in
        let rec at i =
          if i + k > n then Alcotest.failf "no %s gauge in the snapshot" name
          else if String.sub json i k = key then
            Scanf.sscanf (String.sub json (i + k) (n - i - k)) "%f" int_of_float
          else at (i + 1)
        in
        at 0
      in
      let sum =
        gauge "breaker_fast_fails.shard0" + gauge "breaker_fast_fails.shard1"
      in
      check bool_ "the outage fast-failed calls" true (sum > 0);
      check bool_ "one shard fast-failed them all" true
        (gauge "breaker_fast_fails.shard0" = 0
        || gauge "breaker_fast_fails.shard1" = 0);
      List.iter
        (fun name ->
          check int_
            (Printf.sprintf "bare %s = sum over shards" name)
            (gauge (name ^ ".shard0") + gauge (name ^ ".shard1"))
            (gauge name))
        [
          "breaker_fast_fails";
          "breaker_violations";
          "breaker_open_cells";
          "lock_grants";
          "lock_waits";
        ];
      check (Alcotest.option int_) "printed fast-fails = sum over shards"
        (Some sum) printed)

(* ------------------------------------------------------------------ *)
(* One write pacer per fleet                                           *)
(* ------------------------------------------------------------------ *)

(* 8 tenants, each one VPC and 31 security groups, submitted at one
   instant on a cloud with the provider's default write budget (burst
   50, 2 writes/s): 256 creates against a 50-token bucket.  Security
   groups create in about 2 s, so even the baseline's one-apply-at-a-
   time walks, ten writes in flight, outrun the refill rate; a fleet of
   45-second instances would not. *)
let burst_src =
  {|resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_security_group" "sg" {
  count  = 31
  name   = "sg-${count.index}"
  vpc_id = aws_vpc.main.id
  region = "us-east-1"
}
|}

let burst_resources = 8 * 32

(* The fleet that ran the burst to idle (the successor, after a crash)
   and its cloud. *)
let write_burst ?crash ~shards config =
  let cloud = Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:42 () in
  let fleet = Fleet.create ~cloud ~shards config in
  List.iter
    (fun tenant ->
      let dep = Fleet.add_deployment fleet ~tenant ~dname:"d0" ~src:burst_src in
      match Fleet.submit_request fleet dep ~src:burst_src with
      | `Accepted _ -> ()
      | _ -> Alcotest.fail "an unbounded queue admits every request")
    (tenant_names 8);
  match crash with
  | None ->
      Fleet.run fleet ~until:600.;
      (fleet, cloud)
  | Some k -> (
      Fleet.set_crash fleet (Failure.Crash_after k);
      match Fleet.run fleet ~until:600. with
      | () -> Alcotest.fail "the crash gate never tripped"
      | exception Failure.Engine_crashed _ ->
          let fresh, _ = Fleet.resume fleet in
          Fleet.run fresh ~until:600.;
          (fresh, cloud))

let throttled_writes cloud = snd (Cloud.write_throttle_stats cloud)

(* Every shard books from the fleet's one pacer, which mirrors the
   cloud's write budget: the burst is spread at the refill rate and
   the provider never answers 429, at any shard count. *)
let test_fleet_pacer_never_throttles () =
  let run shards =
    let fleet, cloud = write_burst ~shards Shard.fleet_service in
    check int_
      (Printf.sprintf "%d shard(s): no throttled write" shards)
      0 (throttled_writes cloud);
    check int_
      (Printf.sprintf "%d shard(s): every request done" shards)
      8
      (Metrics.counter (Fleet.metrics fleet) "requests_done");
    check int_
      (Printf.sprintf "%d shard(s): every resource managed" shards)
      burst_resources
      (Fleet.managed_resource_count fleet);
    fleet
  in
  let one = run 1 and four = run 4 in
  check Alcotest.string "digest invariant under shard count"
    (Fleet.state_digest one) (Fleet.state_digest four);
  (* a crash mid-burst: the successor's fresh pacer converges the
     fleet with nothing orphaned or created twice *)
  let fleet, cloud = write_burst ~crash:100 ~shards:4 Shard.fleet_service in
  check (Alcotest.list Alcotest.string) "resumed: no orphans" []
    (Fleet.orphans fleet);
  check int_ "resumed: no duplicate creates" burst_resources
    (Cloud.resource_count cloud);
  check int_ "resumed: every resource managed" burst_resources
    (Fleet.managed_resource_count fleet);
  check Alcotest.string "resumed: digest equals the uncrashed run"
    (Fleet.state_digest four) (Fleet.state_digest fleet)

(* Terraform-as-a-service keeps its unpaced walks and retries 429s. *)
let test_baseline_service_throttles () =
  let fleet, cloud = write_burst ~shards:4 Shard.baseline_service in
  check bool_ "the unpaced burst is throttled" true (throttled_writes cloud > 0);
  check int_ "every resource managed" burst_resources
    (Fleet.managed_resource_count fleet)

(* ------------------------------------------------------------------ *)
(* Labeled metric scopes                                               *)
(* ------------------------------------------------------------------ *)

(* A scoped handle writes the bare name and the labelled one; a
   handle made but never written adds no metric, and one whose metric
   another writer created first writes that metric. *)
let test_metric_scopes () =
  let m = Metrics.create () in
  let h0 = Metrics.scope_handle (Metrics.scoped m (Some "shard0")) "api_calls" in
  let h1 = Metrics.scope_handle (Metrics.scoped m (Some "shard1")) "api_calls" in
  let unused = Metrics.scope_handle (Metrics.scoped m (Some "shard1")) "requests" in
  ignore unused;
  Metrics.Handle.inc h0 1;
  Metrics.Handle.inc h0 1;
  Metrics.Handle.inc h1 1;
  check int_ "base counter aggregates every scope" 3
    (Metrics.counter m "api_calls");
  check int_ "shard0 label isolated" 2 (Metrics.counter m "api_calls.shard0");
  check int_ "shard1 label isolated" 1 (Metrics.counter m "api_calls.shard1");
  check (Alcotest.list Alcotest.string) "an unwritten handle adds nothing"
    [ "api_calls"; "api_calls.shard0"; "api_calls.shard1" ]
    (Metrics.names m);
  Metrics.inc m "api_calls.tenant0";
  Metrics.Handle.inc (Metrics.handle m ~label:"tenant0" "api_calls") 2;
  check int_ "a handle finds the metric by its name" 3
    (Metrics.counter m "api_calls.tenant0")

(* ------------------------------------------------------------------ *)
(* State digest golden                                                 *)
(* ------------------------------------------------------------------ *)

(* A hand-built two-deployment fleet whose attributes cover every
   [Value] constructor, strings that need escaping, address texts whose
   string order differs from [Addr.compare] ([web[10]] before [web[2]]),
   and cloud ids — the deployment's own and the other deployment's —
   inside lists and maps.  The expected digest was recorded from the
   [Format]-based renderer the one-pass writer replaced, so any change
   to the digest text fails here. *)
let str s = Value.Vstring s
let map kvs = Value.Vmap (Smap.of_seq (List.to_seq kvs))

let row ?(module_path = []) ?key rtype rname cloud_id attrs =
  {
    State.addr = Addr.make ~module_path ?key ~rtype ~rname ();
    cloud_id;
    rtype;
    region = "us-east-1";
    recorded =
      State.Recorded.of_map
        (Smap.of_seq (List.to_seq (("id", str cloud_id) :: attrs)));
    deps = [];
  }

let digest_fixture () =
  let fleet = Fleet.create ~cloud:(fresh_cloud ()) ~shards:2 Shard.fleet_service in
  let state rows = List.fold_left State.add State.empty rows in
  (* registered in reverse name order: the digest sorts deployments *)
  let app = Fleet.add_deployment fleet ~tenant:"beta" ~dname:"app" ~src:"" in
  let net = Fleet.add_deployment fleet ~tenant:"acme" ~dname:"net" ~src:"" in
  net.Shard.state <-
    state
      [
        row "aws_vpc" "main" "vpc-0001"
          [
            ("arn", str "arn:aws:ec2:vpc/vpc-0001");
            ("cidr_block", str "10.0.0.0/16");
            ("enable_dns", Value.Vbool true);
            ( "tags",
              map
                [
                  ("Name", str "main \"quoted\" \\ back\nnew\ttab\rret");
                  ("count", Value.Vint 3);
                ] );
          ];
        row "aws_subnet" "a" ~key:(Addr.Kint 2) "subnet-0002"
          [
            ("vpc_id", str "vpc-0001");
            ("ratio", Value.Vfloat 0.5);
            ("whole", Value.Vfloat 4.);
            ("huge", Value.Vfloat 1e20);
            ("nothing", Value.Vnull);
            ("pending", Value.Vunknown "aws_subnet.a.arn");
          ];
        row "aws_subnet" "a" ~key:(Addr.Kint 10) "subnet-0010"
          [ ("vpc_id", str "vpc-0001"); ("enabled", Value.Vbool false) ];
        row ~module_path:[ "edge" ] "aws_security_group" "sg"
          ~key:(Addr.Kstr "a b") "sg-0004"
          [ ("vpc_id", str "vpc-0001"); ("ports", Value.Vlist []) ];
      ];
  app.Shard.state <-
    state
      [
        row "aws_instance" "web" "i-0003"
          [
            ("subnet_id", str "subnet-0002");
            ( "vpc_security_group_ids",
              Value.Vlist
                [
                  str "sg-0004";
                  str "sg-unknown";
                  Value.Vint (-7);
                  Value.Vlist [ str "vpc-0001"; Value.Vnull ];
                ] );
            ( "meta",
              map
                [
                  ("ref", str "i-0003");
                  ("inner", map [ ("x", Value.Vbool false); ("y", str "") ]);
                  ("empty", map []);
                ] );
          ];
      ];
  fleet

let test_state_digest_golden () =
  check Alcotest.string "digest of the hand-built fleet"
    "1cf35117c84d902b04e15290ba9c6010"
    (Fleet.state_digest (digest_fixture ()))

(* ------------------------------------------------------------------ *)
(* The owner index and the incremental digest                          *)
(* ------------------------------------------------------------------ *)

(* The from-scratch digest [Fleet.state_digest] must equal on every
   call: sort every deployment, fill a fleet-wide cloud id -> (owning
   deployment, address text) table in state order, sort each
   deployment's rows by that text and render every attribute. *)
let reference_digest fleet =
  let deps =
    List.sort
      (fun (a : Shard.deployment) (b : Shard.deployment) ->
        compare (a.Shard.tenant, a.Shard.dname) (b.Shard.tenant, b.Shard.dname))
      (Fleet.deployments fleet)
  in
  let owner_of = Hashtbl.create 256 in
  let rows =
    List.map
      (fun (d : Shard.deployment) ->
        let rs =
          Array.of_list
            (List.map
               (fun (r : State.resource_state) ->
                 let a = Addr.to_string r.State.addr in
                 Hashtbl.replace owner_of r.State.cloud_id (d, a);
                 (a, r))
               (State.resources d.Shard.state))
        in
        Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) rs;
        (d, rs))
      deps
  in
  let buf = Buffer.create 4096 in
  let add_deployment (d : Shard.deployment) =
    Buffer.add_string buf d.Shard.tenant;
    Buffer.add_char buf '/';
    Buffer.add_string buf d.Shard.dname
  in
  let rec add_value v =
    match v with
    | Value.Vstring s -> (
        match Hashtbl.find_opt owner_of s with
        | Some (d, a) ->
            Buffer.add_char buf '@';
            add_deployment d;
            Buffer.add_char buf '/';
            Buffer.add_string buf a
        | None ->
            Buffer.add_char buf '"';
            Buffer.add_string buf (Value.escape_string s);
            Buffer.add_char buf '"')
    | Value.Vint n -> Buffer.add_string buf (string_of_int n)
    | Value.Vbool b -> Buffer.add_string buf (string_of_bool b)
    | Value.Vnull -> Buffer.add_string buf "null"
    | Value.Vlist vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            add_value v)
          vs;
        Buffer.add_char buf ']'
    | Value.Vmap m ->
        Buffer.add_char buf '{';
        let first = ref true in
        Smap.iter
          (fun k v ->
            if !first then first := false else Buffer.add_char buf ',';
            Buffer.add_string buf k;
            Buffer.add_char buf ':';
            add_value v)
          m;
        Buffer.add_char buf '}'
    | Value.Vfloat _ | Value.Vunknown _ -> Buffer.add_string buf (Value.show v)
  in
  List.iter
    (fun (d, rs) ->
      add_deployment d;
      Buffer.add_char buf '\n';
      Array.iter
        (fun (a, (r : State.resource_state)) ->
          Buffer.add_string buf "  ";
          Buffer.add_string buf a;
          Buffer.add_char buf '|';
          Buffer.add_string buf r.State.rtype;
          Smap.iter
            (fun k v ->
              if k <> "arn" && k <> "id" then begin
                Buffer.add_char buf '|';
                Buffer.add_string buf k;
                Buffer.add_char buf '=';
                add_value v
              end)
            (State.attrs r);
          Buffer.add_char buf '\n')
        rs)
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let agrees ~what fleet =
  check Alcotest.string what (reference_digest fleet) (Fleet.state_digest fleet)

(* An operator checkpoint every 600 simulated seconds from now up to
   [until]: the fleet's digest, whichever fleet [fleet_ref] then holds,
   must equal the oracle's.  Returns the count of checkpoints taken. *)
let checkpoints ~label fleet_ref ~until =
  let cloud = Fleet.cloud !fleet_ref in
  let taken = ref 0 in
  let rec arm at =
    if at <= until then
      Cloud.schedule cloud ~delay:(at -. Cloud.now cloud) (fun () ->
          incr taken;
          agrees
            ~what:(Printf.sprintf "%s: digest at t=%.0f" label at)
            !fleet_ref;
          arm (at +. 600.))
  in
  arm (Cloud.now cloud +. 600.);
  taken

(* fleet-chaos, shrunk from 512 tenants to 16: every episode kind, the
   revision waves and a gated rollout, on the same timeline. *)
let chaos_src =
  {|tenants = 16
resources = 8
requests_per_tenant = 8
request_interval = 900
drift_events = 0
policy_period = 0
duration = 7200
breaker = on
calm_tenants = 2
episode = kind=outage start=880 end=1100
episode = kind=error_storm rtype=aws_instance p=0.85 start=1780 end=2050
episode = kind=throttle_storm rtype=aws_instance retry_after=15 start=2680 end=2950
episode = kind=spot count=6 start=3700
episode = kind=spot count=4 start=4490
episode = kind=quota_cut rtype=aws_instance quota=4 start=4480 end=4800
wave = start=5400 attr=instance_type value=t3.large forbid=t2.nano canary=1 growth=2
|}

let chaos_run ?(extra = "") ?crash ~shards () =
  let scn = Scenario.parse ~file:"<chaos>" (chaos_src ^ extra) in
  let scn = { scn with Scenario.shards } in
  let fleet =
    ref
      (Fleet.create ~cloud:(fresh_cloud ~seed:1 ()) ~shards
         (Scenario.service_config scn Shard.fleet_service))
  in
  ignore (Scenario.install_fleet scn fleet);
  let rollouts = Cloudless_controlplane.Rollout.install scn fleet in
  let label = Printf.sprintf "%d shard(s)" shards in
  let taken = checkpoints ~label fleet ~until:scn.Scenario.duration in
  (match crash with
  | None -> Fleet.run !fleet ~until:scn.Scenario.duration
  | Some k -> (
      Fleet.set_crash !fleet (Failure.Crash_after k);
      match Fleet.run !fleet ~until:scn.Scenario.duration with
      | () -> Alcotest.fail "the crash gate never tripped"
      | exception Failure.Engine_crashed _ ->
          (* the crashed fleet's rollout driver would poll its dead
             shards for ever once the resume settles the cloud *)
          List.iter Cloudless_controlplane.Rollout.abandon rollouts;
          let fresh, _ = Fleet.resume !fleet in
          fleet := fresh;
          agrees ~what:(label ^ ": digest of the resumed fleet") fresh;
          let after =
            checkpoints ~label:(label ^ " resumed") fleet
              ~until:(Cloud.now (Fleet.cloud fresh) +. 3600.)
          in
          Fleet.run fresh ~until:scn.Scenario.duration;
          check bool_ (label ^ ": checkpoints after the resume") true
            (!after > 0)));
  agrees ~what:(label ^ ": digest at the end") !fleet;
  (!fleet, !taken, rollouts)

(* (a) The shrunk fleet-chaos scenario at 1, 2 and 4 shards: every
   checkpoint's digest equals the oracle's, the run's end state is
   shard-count-invariant, and with hot tenants and a rebalance check
   the digest keeps agreeing across rebalance moves. *)
let test_digest_chaos_checkpoints () =
  let digests =
    List.map
      (fun shards ->
        let fleet, taken, rollouts = chaos_run ~shards () in
        check int_
          (Printf.sprintf "%d shard(s): 12 checkpoints" shards)
          12 taken;
        check bool_ "the rollout converged" true
          (List.for_all Cloudless_controlplane.Rollout.converged rollouts);
        Fleet.state_digest fleet)
      [ 1; 2; 4 ]
  in
  check bool_ "one digest at every shard count" true
    (List.for_all (String.equal (List.hd digests)) digests);
  List.iter
    (fun shards ->
      let fleet, _, _ =
        chaos_run ~shards
          ~extra:"hot_tenants = 2\nhot_burst = 8\nrebalance_period = 20\n" ()
      in
      check bool_
        (Printf.sprintf "%d shards: a tenant moved" shards)
        true
        (Metrics.counter (Fleet.metrics fleet) "rebalance_moves" > 0))
    [ 2; 4 ]

(* (a) A crash in the revision waves and the resumed successor: the
   crashed fleet's checkpoints, the successor's first digest (a fresh
   index) and its later checkpoints all equal the oracle's. *)
let test_digest_across_crash () =
  List.iter (fun shards -> ignore (chaos_run ~crash:200 ~shards ())) [ 1; 2; 4 ]

(* (a) E18's bad change on 16 tenants: the canary trips the gate and is
   rolled back while the checkpoints keep agreeing. *)
let test_digest_through_rollback () =
  let change =
    match
      Cloudless_wave.Change.parse ~file:"<bad>"
        {|
change "set_itype" {
  canary = 1
  growth = 2
  action "bump" {
    kind   = "set_attr"
    target = "aws_instance.*"
    attr   = "instance_type"
    value  = "t2.nano"
  }
  gate "no_nano" {
    kind  = "attr_equals"
    rtype = "aws_instance"
    attr  = "instance_type"
    value = "t2.nano"
  }
}
|}
    with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one change block"
  in
  List.iter
    (fun shards ->
      let scn =
        {
          Scenario.default with
          Scenario.tenants = 16;
          shards;
          resources = 6;
          requests_per_tenant = 1;
          drift_events = 0;
          policy_period = 0.;
          duration = 7200.;
        }
      in
      let fleet =
        ref
          (Fleet.create ~cloud:(fresh_cloud ()) ~shards
             (Scenario.service_config scn Shard.fleet_service))
      in
      Scenario.bootstrap scn !fleet;
      let driver =
        Cloudless_controlplane.Rollout.create ~check_period:30. ~change fleet ()
      in
      Cloudless_controlplane.Rollout.launch driver ~at:600.;
      let label = Printf.sprintf "rollback, %d shard(s)" shards in
      let taken = checkpoints ~label fleet ~until:7200. in
      Fleet.run !fleet ~until:7200.;
      check int_ (label ^ ": 12 checkpoints") 12 !taken;
      check int_ (label ^ ": one rollback") 1
        (Cloudless_controlplane.Rollout.rollbacks driver);
      agrees ~what:(label ^ ": digest at the end") !fleet)
    [ 1; 2; 4 ]

(* (b) A string in a deployment whose state never changes gains an
   owner, changes owner (to another address, to another deployment,
   and back through a moment when two states claim it) and loses it:
   beta/app's instance row lists "sg-unknown" and must render each
   owner in turn. *)
let test_digest_follows_owners () =
  let fleet = digest_fixture () in
  let find tenant dname =
    match Fleet.find_deployment fleet ~tenant ~dname with
    | Some d -> d
    | None -> Alcotest.failf "no %s/%s" tenant dname
  in
  let app = find "beta" "app" and net = find "acme" "net" in
  let app_state = app.Shard.state in
  agrees ~what:"the fixture" fleet;
  let sg name = row "aws_security_group" name "sg-unknown" [] in
  let gone name = Addr.make ~rtype:"aws_security_group" ~rname:name () in
  net.Shard.state <- State.add net.Shard.state (sg "late");
  agrees ~what:"gains an owner" fleet;
  (* an address that sorts first: the claim moves without the id ever
     being unowned in between *)
  net.Shard.state <-
    State.add (State.remove net.Shard.state (gone "late")) (sg "early");
  agrees ~what:"changes owner within acme/net" fleet;
  let db = Fleet.add_deployment fleet ~tenant:"gamma" ~dname:"db" ~src:"" in
  net.Shard.state <- State.remove net.Shard.state (gone "early");
  db.Shard.state <- State.add db.Shard.state (sg "moved");
  agrees ~what:"changes owner to gamma/db" fleet;
  (* claimed by two states at once, the id belongs to the later
     deployment; when that claim goes, the other one owns it *)
  net.Shard.state <- State.add net.Shard.state (sg "again");
  agrees ~what:"claimed by acme/net and gamma/db" fleet;
  db.Shard.state <- State.remove db.Shard.state (gone "moved");
  agrees ~what:"back to acme/net" fleet;
  check bool_ "acme/net owns it" true
    (match Fleet.owning_deployment fleet "sg-unknown" with
    | Some d -> d == net
    | None -> false);
  net.Shard.state <- State.remove net.Shard.state (gone "again");
  agrees ~what:"loses its owner" fleet;
  check bool_ "beta/app's state never changed" true
    (app.Shard.state == app_state);
  check bool_ "no deployment owns the id" true
    (Option.is_none (Fleet.owning_deployment fleet "sg-unknown"))

(* A config whose revisions replace both subnets (a new cidr_block
   mints new ids) and then drop one; an out-of-band write to the
   subnets' tags is drift that a reconcile repairs in place. *)
let net_src ~offset ~count =
  Printf.sprintf
    {|resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "a" {
  count      = %d
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.${count.index + %d}.0/24"
  region     = "us-east-1"
  tags       = { team = "net" }
}
|}
    count offset

let cloud_id (dep : Shard.deployment) i =
  let addr = Addr.make ~rtype:"aws_subnet" ~rname:"a" ~key:(Addr.Kint i) () in
  match State.find_opt dep.Shard.state addr with
  | Some r -> r.State.cloud_id
  | None -> Alcotest.failf "no aws_subnet.a[%d]" i

let owned_by fleet id (dep : Shard.deployment) =
  match Fleet.owning_deployment fleet id with
  | Some d -> d == dep
  | None -> false

(* The owner index follows a replace, which mints new ids, and a
   removed row, whose id then belongs to nobody; an out-of-band write
   to a replaced subnet is detected for its deployment. *)
let test_owner_index_follows_ids () =
  let cloud = fresh_cloud () in
  let fleet = Fleet.create ~cloud ~shards:2 Shard.fleet_service in
  let dep = Fleet.add_deployment fleet ~tenant:"acme" ~dname:"net" ~src:"" in
  let other = Fleet.add_deployment fleet ~tenant:"beta" ~dname:"net" ~src:"" in
  let submit d src = ignore (Fleet.submit_request fleet d ~src) in
  submit dep (net_src ~offset:0 ~count:2);
  submit other (net_src ~offset:0 ~count:2);
  let first = ref "" and second = ref "" and removed = ref "" in
  Cloud.schedule cloud ~delay:600. (fun () ->
      first := cloud_id dep 0;
      check bool_ "a[0] is acme/net's" true (owned_by fleet !first dep);
      check bool_ "beta's subnet is beta's" true
        (owned_by fleet (cloud_id other 0) other);
      submit dep (net_src ~offset:10 ~count:2));
  Cloud.schedule cloud ~delay:1800. (fun () ->
      second := cloud_id dep 0;
      check bool_ "the replace minted a new id" true (!second <> !first);
      check bool_ "the new id is acme/net's" true (owned_by fleet !second dep);
      check bool_ "the replaced id is nobody's" true
        (Option.is_none (Fleet.owning_deployment fleet !first));
      removed := cloud_id dep 1;
      (match
         Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:!second ~attr:"tags"
           ~value:(map [ ("team", str "ops") ])
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "oob mutation failed");
      submit dep (net_src ~offset:10 ~count:1));
  Fleet.run fleet ~until:3600.;
  check bool_ "the drift on the new id was detected" true
    (List.mem_assoc !second (Fleet.drift_detections fleet));
  check bool_ "acme/net's shard took the reconcile" true
    (List.mem_assoc !second
       (Shard.drift_detections (Fleet.owner_shard fleet "acme")));
  check bool_ "the removed row's id is nobody's" true
    (Option.is_none (Fleet.owning_deployment fleet !removed));
  check bool_ "the kept subnet is still acme/net's" true
    (owned_by fleet !second dep);
  agrees ~what:"digest at the end" fleet

(* A tenant the rebalancer moved keeps its deployment record: the
   owner index routes an out-of-band write on one of its resources to
   that deployment, now reconciled on the destination shard. *)
let test_owner_index_after_rebalance () =
  let sink, spans = Trace.memory_sink () in
  let cloud = fresh_cloud () in
  let trace = Trace.create ~sim_clock:(fun () -> Cloud.now cloud) sink in
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 8;
      shards = 2;
      requests_per_tenant = 2;
      request_interval = 300.;
      drift_events = 0;
      policy_period = 0.;
      duration = 1200.;
      hot_tenants = 2;
      hot_burst = 8;
      max_queue_depth = 4;
      rebalance_period = 20.;
    }
  in
  let fleet =
    ref (Fleet.create ~cloud ~trace ~shards:2
           (Scenario.service_config scn Shard.fleet_service))
  in
  ignore (Scenario.install_fleet scn fleet);
  let moved = ref None in
  Cloud.schedule cloud ~delay:900. (fun () ->
      match
        List.rev
          (List.filter
             (fun (s : Trace.span) -> s.Trace.name = "rebalance")
             (spans ()))
      with
      | [] -> Alcotest.fail "no rebalance move by t=900"
      | s :: _ ->
          let tenant = List.assoc "tenant" s.Trace.meta in
          let dst = int_of_string (List.assoc "to" s.Trace.meta) in
          check int_ "the last move's destination owns the tenant" dst
            (Shard.sid (Fleet.owner_shard !fleet tenant));
          let dep =
            match Fleet.find_deployment !fleet ~tenant ~dname:"d0" with
            | Some d -> d
            | None -> Alcotest.failf "no %s/d0" tenant
          in
          let r =
            List.find
              (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
              (State.resources dep.Shard.state)
          in
          check bool_ "the index finds the moved deployment" true
            (owned_by !fleet r.State.cloud_id dep);
          moved := Some (dst, r.State.cloud_id);
          match
            Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:r.State.cloud_id
              ~attr:"instance_type" ~value:(str "t2.nano")
          with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "oob mutation failed");
  Fleet.run !fleet ~until:scn.Scenario.duration;
  match !moved with
  | None -> Alcotest.fail "the checkpoint never ran"
  | Some (dst, id) ->
      check bool_ "the destination shard took the reconcile" true
        (List.mem_assoc id
           (Shard.drift_detections (List.nth (Fleet.shards !fleet) dst)));
      agrees ~what:"digest at the end" !fleet

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "fleet.router",
      [
        qtest prop_ring_stability;
        qtest prop_single_owner;
        Alcotest.test_case "single registration" `Quick
          test_fleet_single_registration;
        Alcotest.test_case "partition covers all shards" `Quick
          test_partition_covers_all_shards;
      ] );
    ( "fleet.drift",
      [
        Alcotest.test_case "golden subscribe trace" `Quick
          test_golden_subscribe_trace;
        Alcotest.test_case "cross-shard routing + digest invariance" `Slow
          test_cross_shard_routing_and_digest;
      ] );
    ( "fleet.resilience",
      [
        Alcotest.test_case "crash resumes at shard granularity" `Slow
          test_fleet_crash_resume;
        Alcotest.test_case "orphan audit names an untracked create" `Quick
          test_orphan_audit;
        Alcotest.test_case "defer backpressure" `Quick test_backpressure_defer;
        Alcotest.test_case "reject backpressure" `Quick
          test_backpressure_reject;
        Alcotest.test_case "serve reads every setting from the scenario" `Quick
          test_serve_reads_scenario_settings;
        Alcotest.test_case "serve sums breaker counts over shards" `Quick
          test_serve_sums_breaker_counts;
        Alcotest.test_case "one fleet pacer: no 429s, resumable" `Quick
          test_fleet_pacer_never_throttles;
        Alcotest.test_case "baseline service still throttles" `Quick
          test_baseline_service_throttles;
      ] );
    ( "fleet.obs",
      [
        Alcotest.test_case "metric scopes" `Quick test_metric_scopes;
        Alcotest.test_case "state digest golden" `Quick
          test_state_digest_golden;
      ] );
    ( "fleet.index",
      [
        Alcotest.test_case "digest = oracle at chaos checkpoints" `Quick
          test_digest_chaos_checkpoints;
        Alcotest.test_case "digest = oracle across crash and resume" `Quick
          test_digest_across_crash;
        Alcotest.test_case "digest = oracle through a rollback" `Quick
          test_digest_through_rollback;
        Alcotest.test_case "digest follows a string's owners" `Quick
          test_digest_follows_owners;
        Alcotest.test_case "owner index follows replaced and removed ids"
          `Quick test_owner_index_follows_ids;
        Alcotest.test_case "owner index after a rebalance move" `Quick
          test_owner_index_after_rebalance;
      ] );
  ]
