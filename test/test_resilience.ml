(* E17 resilience tests: circuit-breaker state machine (unit + QCheck
   shadow model), the strict episode sub-grammar of the scenario DSL,
   the episode engine's windows/verdicts/quota floors, the executor's
   distinct outage diagnostic, a probe settled by any answer, scan
   shedding under an open breaker, parked requests converging to the
   newest revision, parked work waking on its own breaker cell, and
   chaos determinism (same seed, byte-identical metrics). *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module Failure = Cloudless_sim.Failure
module Prng = Cloudless_sim.Prng
module Activity_log = Cloudless_sim.Activity_log
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Breaker = Cloudless_deploy.Breaker
module Fleet = Cloudless_controlplane.Fleet
module Shard = Cloudless_controlplane.Shard
module Scenario = Cloudless_controlplane.Scenario
module Metrics = Cloudless_obs.Metrics
module Lock_manager = Cloudless_lock.Lock_manager
module Cloud_rules = Cloudless_schema.Cloud_rules
module Err = Cloudless_error
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Breaker state machine                                               *)
(* ------------------------------------------------------------------ *)

let bcfg =
  { Breaker.failure_threshold = 3; cooldown = 10.; cooldown_factor = 2.;
    max_cooldown = 100. }

let k = ("create", "aws_instance")

let test_breaker_trip_cycle () =
  let b = Breaker.create ~config:bcfg () in
  let kind, rtype = k in
  check bool_ "fresh cell proceeds" true
    (Breaker.acquire b ~now:0. ~kind ~rtype = `Proceed);
  Breaker.failure b ~now:1. ~kind ~rtype;
  Breaker.failure b ~now:2. ~kind ~rtype;
  check bool_ "below threshold stays closed" true
    (Breaker.state b ~kind ~rtype = Breaker.Closed);
  Breaker.failure b ~now:3. ~kind ~rtype;
  check bool_ "threshold trips open" true
    (Breaker.state b ~kind ~rtype = Breaker.Open);
  (match Breaker.acquire b ~now:5. ~kind ~rtype with
  | `Reject d -> check bool_ "remaining cooldown" true (abs_float (d -. 8.) < 1e-9)
  | `Proceed -> Alcotest.fail "open cell granted a call");
  check int_ "rejection counted" 1 (Breaker.rejections b);
  (* cooldown elapsed: exactly one probe *)
  check bool_ "probe granted" true
    (Breaker.acquire b ~now:13. ~kind ~rtype = `Proceed);
  check bool_ "half open" true
    (Breaker.state b ~kind ~rtype = Breaker.Half_open);
  check bool_ "second probe rejected" true
    (match Breaker.acquire b ~now:13. ~kind ~rtype with
    | `Reject _ -> true
    | `Proceed -> false);
  (* failed probe re-trips with doubled cooldown *)
  Breaker.failure b ~now:14. ~kind ~rtype;
  check bool_ "re-tripped" true (Breaker.state b ~kind ~rtype = Breaker.Open);
  (match Breaker.next_probe_at b with
  | Some t -> check bool_ "cooldown doubled" true (abs_float (t -. 34.) < 1e-9)
  | None -> Alcotest.fail "no probe time while open");
  (* successful probe closes and resets the escalation *)
  check bool_ "second probe granted" true
    (Breaker.acquire b ~now:40. ~kind ~rtype = `Proceed);
  Breaker.success b ~now:41. ~kind ~rtype;
  check bool_ "closed after good probe" true
    (Breaker.state b ~kind ~rtype = Breaker.Closed);
  Breaker.failure b ~now:50. ~kind ~rtype;
  Breaker.failure b ~now:51. ~kind ~rtype;
  Breaker.failure b ~now:52. ~kind ~rtype;
  (match Breaker.next_probe_at b with
  | Some t ->
      check bool_ "escalation reset after close" true
        (abs_float (t -. 62.) < 1e-9)
  | None -> Alcotest.fail "no probe time after re-trip");
  check int_ "no violations in a clean run" 0 (Breaker.violations b)

let test_breaker_transitions_observed () =
  let log = ref [] in
  let b =
    Breaker.create ~config:bcfg
      ~on_transition:(fun ~kind:_ ~rtype:_ ~before ~after ~now:_ ->
        log := (before, after) :: !log)
      ()
  in
  let kind, rtype = k in
  for _ = 1 to 3 do Breaker.failure b ~now:0. ~kind ~rtype done;
  ignore (Breaker.acquire b ~now:20. ~kind ~rtype);
  Breaker.success b ~now:21. ~kind ~rtype;
  check bool_ "closed->open->half_open->closed" true
    (List.rev !log
    = [
        (Breaker.Closed, Breaker.Open);
        (Breaker.Open, Breaker.Half_open);
        (Breaker.Half_open, Breaker.Closed);
      ])

(* Shadow-model property: replay a random schedule of outcomes and
   clock advances against the breaker; every granted acquire must find
   the cell not Open (the note_issue tripwire), and every rejection
   must happen strictly inside the cooldown window. *)
let prop_never_proceed_while_open =
  QCheck.Test.make ~count:200 ~name:"breaker never grants while open"
    QCheck.(pair (int_range 0 1_000_000) (int_range 10 60))
    (fun (seed, steps) ->
      let rng = Prng.create seed in
      let b = Breaker.create ~config:bcfg () in
      let kind, rtype = k in
      let now = ref 0. in
      for _ = 1 to steps do
        now := !now +. Prng.float_range rng 0. 8.;
        match Breaker.acquire b ~now:!now ~kind ~rtype with
        | `Proceed ->
            Breaker.note_issue b ~kind ~rtype;
            if Prng.float_range rng 0. 1. < 0.6 then
              Breaker.failure b ~now:!now ~kind ~rtype
            else Breaker.success b ~now:!now ~kind ~rtype
        | `Reject _ -> ()
      done;
      Breaker.violations b = 0)

(* ------------------------------------------------------------------ *)
(* Episode engine                                                      *)
(* ------------------------------------------------------------------ *)

let test_episode_windows () =
  let e =
    Failure.episode ~rtype:"aws_instance" ~region:"us-east-1" ~magnitude:0.5
      ~start_:100. ~finish:200. Failure.Error_storm
  in
  check bool_ "inside window" true
    (Failure.episode_active e ~now:150. ~rtype:"aws_instance"
       ~region:"us-east-1");
  check bool_ "before window" false
    (Failure.episode_active e ~now:99. ~rtype:"aws_instance"
       ~region:"us-east-1");
  check bool_ "finish exclusive" false
    (Failure.episode_active e ~now:200. ~rtype:"aws_instance"
       ~region:"us-east-1");
  check bool_ "other rtype unaffected" false
    (Failure.episode_active e ~now:150. ~rtype:"aws_vpc" ~region:"us-east-1");
  check bool_ "other region unaffected" false
    (Failure.episode_active e ~now:150. ~rtype:"aws_instance"
       ~region:"eu-west-1")

let test_episode_verdicts () =
  let outage = Failure.episode ~start_:0. ~finish:100. Failure.Outage in
  let p = Prng.create 7 in
  (match
     Failure.episode_verdict [ outage ] p ~now:50. ~rtype:"aws_vpc"
       ~region:"us-east-1"
   with
  | Some (Failure.Ep_error _) -> ()
  | _ -> Alcotest.fail "outage must fail the write");
  check bool_ "outside window falls through" true
    (Failure.episode_verdict [ outage ] p ~now:150. ~rtype:"aws_vpc"
       ~region:"us-east-1"
    = None);
  let throttle =
    Failure.episode ~magnitude:42. ~start_:0. ~finish:100.
      Failure.Throttle_storm
  in
  (match
     Failure.episode_verdict [ throttle ] p ~now:10. ~rtype:"aws_vpc"
       ~region:"us-east-1"
   with
  | Some (Failure.Ep_throttle after) ->
      check bool_ "retry-after is the magnitude" true (after = 42.)
  | _ -> Alcotest.fail "throttle storm must throttle");
  (* error storms consume PRNG; same seed, same verdict sequence *)
  let storm =
    Failure.episode ~magnitude:0.5 ~start_:0. ~finish:100. Failure.Error_storm
  in
  let draw seed =
    let p = Prng.create seed in
    List.init 32 (fun _ ->
        Failure.episode_verdict [ storm ] p ~now:10. ~rtype:"aws_vpc"
          ~region:"us-east-1"
        <> None)
  in
  check bool_ "error-storm draws are deterministic" true (draw 3 = draw 3)

let test_quota_floor () =
  let cut rtype q =
    Failure.episode ?rtype ~magnitude:(float_of_int q) ~start_:0. ~finish:100.
      Failure.Quota_cut
  in
  check bool_ "lowest active floor wins" true
    (Failure.quota_floor
       [ cut None 8; cut (Some "aws_instance") 3 ]
       ~now:10. ~rtype:"aws_instance" ~region:"r"
    = Some 3);
  check bool_ "no active cut, no floor" true
    (Failure.quota_floor [ cut None 8 ] ~now:200. ~rtype:"aws_instance"
       ~region:"r"
    = None)

let test_cloud_episode_markers () =
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:1 ()
  in
  Cloud.set_episodes cloud
    [ Failure.episode ~start_:5. ~finish:10. Failure.Outage ];
  Cloud.run_until_idle cloud;
  let markers =
    List.filter_map
      (fun (e : Activity_log.entry) ->
        match e.Activity_log.op with
        | Activity_log.Log_failure msg when contains ~sub:"episode" msg ->
            Some msg
        | _ -> None)
      (Activity_log.all (Cloud.log cloud))
  in
  check bool_ "start marker logged" true
    (List.exists (contains ~sub:"episode-start:outage") markers);
  check bool_ "end marker logged" true
    (List.exists (contains ~sub:"episode-end:outage") markers)

(* ------------------------------------------------------------------ *)
(* Scenario episode grammar: strict, typed, located                    *)
(* ------------------------------------------------------------------ *)

let parse_err src =
  match Scenario.parse ~file:"t.scn" src with
  | (_ : Scenario.t) -> Alcotest.fail "parse accepted a malformed scenario"
  | exception Err.Error d -> d

let test_episode_grammar_ok () =
  let scn =
    Scenario.parse
      "tenants = 4\n\
       breaker = on\n\
       calm_tenants = 2\n\
       episode = kind=outage start=100 end=200\n\
       episode = kind=error_storm rtype=aws_instance p=0.7 start=300 end=400\n\
       episode = kind=spot count=3 start=500\n"
  in
  check bool_ "breaker armed" true scn.Scenario.breaker;
  check int_ "calm tenants" 2 scn.Scenario.calm_tenants;
  check int_ "three episodes" 3 (List.length scn.Scenario.episodes);
  (match scn.Scenario.episodes with
  | [ outage; storm; spot ] ->
      check bool_ "outage kind" true (outage.Failure.ekind = Failure.Outage);
      check bool_ "storm magnitude" true (storm.Failure.emag = 0.7);
      check bool_ "storm rtype" true
        (storm.Failure.ertype = Some "aws_instance");
      check bool_ "spot count" true (spot.Failure.emag = 3.);
      check bool_ "spot window defaults past start" true
        (spot.Failure.efinish > spot.Failure.estart)
  | _ -> Alcotest.fail "episodes out of order")

let test_episode_grammar_errors () =
  let cases =
    [
      (* unknown episode sub-key, with the offending line located *)
      ("tenants = 2\nepisode = kind=outage start=1 end=2 blast=9\n",
       "unknown episode key", 2);
      ("episode = kind=meteor start=1 end=2\n", "unknown episode kind", 1);
      ("episode = kind=outage end=2\n", "requires start", 1);
      ("episode = kind=error_storm start=1 end=2\n", "requires p", 1);
      (* magnitudes are kind-checked *)
      ("episode = kind=outage start=1 end=2 p=0.5\n", "only applies", 1);
      ("episode = kind=outage start=5 end=2\n", "must be after", 1);
      ("episode = kind=outage start=abc end=2\n", "expects a number", 1);
      (* every number is finite and in range *)
      ("episode = kind=outage start=nan end=2\n", "expects a number", 1);
      ("episode = kind=error_storm p=-0.5 start=1 end=2\n",
       "expects a number", 1);
      ("tenants = 2\ndrift_period = 0\n", "expects a number", 2);
      ("drift_period = -60\n", "expects a number", 1);
      ("duration = inf\n", "expects a number", 1);
      ("request_interval = nan\n", "expects a number", 1);
      ("shards = 0\n", "expects an integer", 1);
      ("shards = -1\n", "expects an integer", 1);
      ("resources = 0\n", "expects an integer", 1);
      ("tenants = 0\n", "expects an integer", 1);
      ("hot_burst = -3\n", "expects an integer", 1);
      ("breaker = maybe\n", "breaker expects on|off", 1);
      (* the top-level grammar stays strict too *)
      ("chaos_monkey = on\n", "unknown scenario key", 1);
    ]
  in
  List.iter
    (fun (src, frag, line) ->
      let d = parse_err src in
      check string_ "code" "scenario-syntax" d.Err.Diagnostic.code;
      check bool_ "syntax stage" true
        (d.Err.Diagnostic.stage = Err.Diagnostic.Syntax);
      check bool_
        (Printf.sprintf "message %S mentions %S" d.Err.Diagnostic.message frag)
        true
        (contains ~sub:frag d.Err.Diagnostic.message);
      let span = d.Err.Diagnostic.span in
      check string_ "span file" "t.scn" span.Err.Loc.file;
      check int_ "span line" line (Err.Loc.line span);
      check bool_ "no file:line prefix in the message" false
        (contains ~sub:"t.scn" d.Err.Diagnostic.message))
    cases

(* ------------------------------------------------------------------ *)
(* Executor: distinct outage diagnostic                                *)
(* ------------------------------------------------------------------ *)

let expand_src src =
  (Eval.expand ~env:Eval.default_env (Config.parse ~file:"t.tf" src)).Eval.instances

let vpc_src =
  {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
|}

let run_exhaustion ~with_breaker =
  let config =
    {
      (Cloud_rules.config_with_checks ()) with
      Cloud.failure =
        Failure.make ~transient_types:[ ("aws_vpc", "api down") ] ();
    }
  in
  let cloud = Cloud.create ~config ~seed:3 () in
  let plan = Plan.make ~state:State.empty (expand_src vpc_src) in
  let breaker =
    if with_breaker then
      Some
        (Breaker.create
           ~config:{ bcfg with Breaker.failure_threshold = 2 }
           ())
    else None
  in
  let journal = Journal.create () in
  let report =
    Executor.apply cloud ~config:Executor.baseline_config ~state:State.empty
      ~plan ?breaker ~journal ()
  in
  let create_intents =
    List.length
      (List.filter
         (function
           | Journal.Intent { Journal.kind = Journal.Op_create; _ } -> true
           | _ -> false)
         (Journal.entries journal))
  in
  (List.map (fun d -> d.Err.Diagnostic.code) report.Executor.diagnostics,
   create_intents)

let test_outage_diagnostic () =
  let attempts = Executor.baseline_config.Executor.max_retries + 1 in
  (match run_exhaustion ~with_breaker:true with
  | [ code ], intents ->
      check string_ "outage-flavored exhaustion" "retries-exhausted-outage" code;
      (* the executor stops writing once the cell opens, instead of
         retrying into the outage until its budget runs out *)
      check bool_
        (Printf.sprintf "%d vpc create intents < %d" intents attempts)
        true (intents < attempts)
  | codes, _ ->
      Alcotest.fail
        (Printf.sprintf "expected one diagnostic, got [%s]"
           (String.concat "; " codes)));
  match run_exhaustion ~with_breaker:false with
  | [ code ], intents ->
      check string_ "generic exhaustion" "retries-exhausted" code;
      check int_ "every attempt journaled" attempts intents
  | codes, _ ->
      Alcotest.fail
        (Printf.sprintf "expected one diagnostic, got [%s]"
           (String.concat "; " codes))

let vpc_named name =
  Printf.sprintf
    {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
  name       = "%s"
}
|}
    name

let trip cloud b (kind, rtype) =
  for _ = 1 to bcfg.Breaker.failure_threshold do
    Breaker.failure b ~now:(Cloud.now cloud) ~kind ~rtype
  done

(* A half-open probe that the cloud answers with a non-retryable error
   settles its cell: the API is up.  Trip update/aws_vpc, let the
   cooldown pass, and send the update probe to a VPC deleted out of
   band.  Its Not_found closes the cell, where it used to leave it
   Half_open with the probe slot taken for good. *)
let test_probe_answer_settles_cell () =
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:3 ()
  in
  let config =
    { Executor.baseline_config with Executor.refresh = Executor.Refresh_none }
  in
  let apply ?breaker state src =
    Executor.apply cloud ~config ~state
      ~plan:(Plan.make ~state (expand_src src))
      ?breaker ()
  in
  let state = (apply State.empty (vpc_named "a")).Executor.state in
  let b = Breaker.create ~config:bcfg () in
  let kind, rtype = ("update", "aws_vpc") in
  trip cloud b (kind, rtype);
  check bool_ "tripped" true (Breaker.state b ~kind ~rtype = Breaker.Open);
  (match State.resources state with
  | [ vpc ] -> (
      match Cloud.delete_oob cloud ~script:"ops" ~cloud_id:vpc.State.cloud_id with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "out-of-band delete failed")
  | _ -> Alcotest.fail "expected one VPC");
  Cloud.advance_to cloud (Cloud.now cloud +. bcfg.Breaker.cooldown +. 1.);
  let probe = apply ~breaker:b state (vpc_named "b") in
  (match probe.Executor.failed with
  | [ f ] ->
      check bool_ "the probe was answered Not_found" true
        (contains ~sub:"not found" f.Executor.reason)
  | _ -> Alcotest.fail "expected the update probe to fail");
  check bool_ "the answer closed the cell" true
    (Breaker.state b ~kind ~rtype = Breaker.Closed);
  check bool_ "a later call proceeds" true
    (Breaker.acquire b ~now:(Cloud.now cloud +. 10_000.) ~kind ~rtype
    = `Proceed)

(* ------------------------------------------------------------------ *)
(* Degraded mode: scan shedding + parked work drains                   *)
(* ------------------------------------------------------------------ *)

let shed_scenario =
  "tenants = 2\n\
   resources = 6\n\
   requests_per_tenant = 2\n\
   request_interval = 100\n\
   drift_events = 0\n\
   drift_period = 30\n\
   policy_period = 0\n\
   duration = 900\n\
   breaker = on\n\
   episode = kind=outage start=90 end=300\n"

let test_scan_shed_and_drain () =
  let scn = Scenario.parse shed_scenario in
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:5 ()
  in
  let config = Scenario.service_config scn Shard.baseline_service in
  let cp = ref (Fleet.create ~cloud ~shards:1 config) in
  let _injections = Scenario.install_fleet scn cp in
  Fleet.run !cp ~until:scn.Scenario.duration;
  let m = Fleet.metrics !cp in
  check bool_ "breaker opened under outage" true
    (Metrics.counter m "breaker_opened" > 0);
  check bool_ "baseline sweeps shed while open" true
    (Metrics.counter m "scans_shed" > 0);
  check int_ "all requests eventually done" 4
    (Metrics.counter m "requests_done");
  check bool_ "degraded window entered" true
    (Metrics.counter m "degraded_entries" > 0);
  check bool_ "nothing parked at the end" true
    (List.for_all (fun s -> Shard.parked_work s = 0) (Fleet.shards !cp))

(* ------------------------------------------------------------------ *)
(* Parked requests converge to the newest revision                     *)
(* ------------------------------------------------------------------ *)

let rev_scn = { Scenario.default with Scenario.resources = 8 }
let rev_a = Scenario.fleet_src rev_scn ~wave:0
let rev_b = Scenario.fleet_src rev_scn ~wave:1

(* One deployment on a one-shard fleet with the breaker on, under a
   full outage.  With [~stale:true] revision A is submitted at t=0 and
   revision B the first instant A is seen parked; otherwise only B is
   ever submitted.  Returns the fleet, the deployment, and how many
   units were parked when B arrived. *)
let revision_run ~stale =
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:5 ()
  in
  Cloud.set_episodes cloud
    [ Failure.episode ~start_:0. ~finish:300. Failure.Outage ];
  let config =
    { Shard.fleet_service with Shard.breaker = Some Breaker.default_config }
  in
  let fleet = Fleet.create ~cloud ~shards:1 config in
  let dep = Fleet.add_deployment fleet ~tenant:"acme" ~dname:"prod" ~src:rev_a in
  let parked () =
    List.fold_left (fun n s -> n + Shard.parked_work s) 0 (Fleet.shards fleet)
  in
  let parked_at_b = ref 0 in
  let submit_b () =
    parked_at_b := parked ();
    ignore (Fleet.submit_request fleet dep ~src:rev_b)
  in
  if stale then begin
    ignore (Fleet.submit_request fleet dep ~src:rev_a);
    let rec when_parked () =
      Cloud.schedule cloud ~delay:1. (fun () ->
          if parked () > 0 then submit_b () else when_parked ())
    in
    when_parked ()
  end
  else submit_b ();
  Fleet.run fleet ~until:2000.;
  (fleet, dep, !parked_at_b)

(* A request parked on revision A is rebuilt from the latest source at
   re-admission, so once B is submitted no plan for A may reach the
   cloud: the deployment ends on B's instance types with exactly the
   state of a run that only ever saw B, and the engine never had to
   update or replace a row A had written. *)
let test_parked_request_converges_to_newest () =
  let fleet, dep, parked_at_b = revision_run ~stale:true in
  let only_b, _, _ = revision_run ~stale:false in
  check bool_ "A was parked when B arrived" true (parked_at_b > 0);
  check int_ "both requests done" 2
    (Metrics.counter (Fleet.metrics fleet) "requests_done");
  let types =
    List.filter_map
      (fun (r : State.resource_state) ->
        if r.State.rtype = "aws_instance" then
          Some (Smap.find_opt "instance_type" (State.attrs r))
        else None)
      (State.resources dep.Shard.state)
  in
  check bool_ "every instance row is present" true (List.length types = 4);
  check bool_ "every instance row carries B's type" true
    (List.for_all (( = ) (Some (Value.Vstring "t3.medium"))) types);
  check string_ "digest equals the B-only run" (Fleet.state_digest only_b)
    (Fleet.state_digest fleet);
  let rewrites =
    List.filter
      (fun (e : Activity_log.entry) ->
        match e.Activity_log.op with
        | Activity_log.Log_update | Activity_log.Log_delete -> true
        | _ -> false)
      (Activity_log.all (Cloud.log (Fleet.cloud fleet)))
  in
  check int_ "no stale revision reached the cloud" 0 (List.length rewrites)

(* ------------------------------------------------------------------ *)
(* Parked work waits on its own breaker cell                           *)
(* ------------------------------------------------------------------ *)

(* A one-shard fleet whose breaker cells the test trips by hand
   ([bcfg]: 3 failures, 10 s cooldown, so a cell tripped at [t] admits
   its probe at [t + 10]). *)
let cell_fleet () =
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:5 ()
  in
  let fleet =
    Fleet.create ~cloud ~shards:1
      { Shard.fleet_service with Shard.breaker = Some bcfg }
  in
  let shard = List.hd (Fleet.shards fleet) in
  let b =
    match Shard.breaker shard with
    | Some b -> b
    | None -> Alcotest.fail "breaker not armed"
  in
  (cloud, fleet, shard, b)

let create_vpc = ("create", "aws_vpc")
let create_subnet = ("create", "aws_subnet")

let submit fleet dep src =
  match Fleet.submit_request fleet dep ~src with
  | `Accepted rid -> rid
  | `Deferred _ | `Rejected -> Alcotest.fail "request not admitted"

let completed_at fleet rid =
  match
    List.find_opt (fun (_, r, _) -> r = rid) (Fleet.completed_requests fleet)
  with
  | Some (_, _, at) -> at
  | None -> Alcotest.fail (Printf.sprintf "request %d never completed" rid)

let vpc_row (dep : Shard.deployment) =
  match State.resources dep.Shard.state with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected one VPC row"

(* A unit parked on cell A (create/aws_vpc, open 5 s to 15 s) is
   re-admitted neither when cell B (create/aws_subnet) probes and closes
   at 11 s nor at any time before A's cooldown ends: it holds no lock
   grant until 15 s. *)
let test_parked_waits_on_its_cell () =
  let cloud, fleet, shard, b = cell_fleet () in
  let dep =
    Fleet.add_deployment fleet ~tenant:"acme" ~dname:"prod" ~src:(vpc_named "a")
  in
  let at time f = Cloud.schedule_at cloud ~time f in
  let grants () = fst (Lock_manager.stats (Shard.lock shard)) in
  let rid = ref (-1) and seen = ref [] in
  at 0. (fun () -> trip cloud b create_subnet);
  at 5. (fun () ->
      trip cloud b create_vpc;
      rid := submit fleet dep (vpc_named "a"));
  at 11. (fun () ->
      let kind, rtype = create_subnet in
      check bool_ "cell B grants its probe" true
        (Breaker.acquire b ~now:11. ~kind ~rtype = `Proceed);
      Breaker.success b ~now:11. ~kind ~rtype);
  List.iter
    (fun time ->
      at time (fun () ->
          seen := (time, Shard.parked_work shard, grants ()) :: !seen))
    [ 6.; 12.; 14.9 ];
  Fleet.run fleet ~until:200.;
  check
    Alcotest.(list (triple (float 0.) int int))
    "(time, parked, lock grants): parked once, never re-admitted"
    [ (6., 1, 1); (12., 1, 1); (14.9, 1, 1) ]
    (List.rev !seen);
  check bool_ "done after A's cooldown" true (completed_at fleet !rid >= 15.);
  check int_ "re-admitted exactly once" 2 (grants ());
  check int_ "nothing parked" 0 (Shard.parked_work shard)

(* Four requests park on one cell in the order d3, d1, d2, d1 (the last
   a newer revision of d1).  The first waiter takes the probe when the
   cooldown ends; its success closes the cell and the rest re-enter at
   that instant, in park order: their VPCs are minted in that order,
   and d1's parked request applies the newer revision. *)
let test_close_wakes_in_park_order () =
  let cloud, fleet, shard, b = cell_fleet () in
  let dep t =
    Fleet.add_deployment fleet ~tenant:t ~dname:"prod" ~src:(vpc_named "a")
  in
  let d1 = dep "t1" and d2 = dep "t2" and d3 = dep "t3" in
  let at time f = Cloud.schedule_at cloud ~time f in
  at 0. (fun () -> trip cloud b create_vpc);
  at 1. (fun () ->
      List.iter (fun d -> ignore (submit fleet d (vpc_named "a"))) [ d3; d1; d2 ]);
  at 2. (fun () ->
      check int_ "three parked" 3 (Shard.parked_work shard);
      ignore (submit fleet d1 (vpc_named "b")));
  Fleet.run fleet ~until:200.;
  check int_ "every request done" 4
    (Metrics.counter (Fleet.metrics fleet) "requests_done");
  check int_ "nothing parked" 0 (Shard.parked_work shard);
  let ids = List.map (fun d -> (vpc_row d).State.cloud_id) [ d3; d1; d2 ] in
  check
    Alcotest.(list string)
    "VPCs minted in park order" ids
    (List.sort String.compare ids);
  let resource d =
    match Cloud.lookup cloud (vpc_row d).State.cloud_id with
    | Some r -> r
    | None -> Alcotest.fail "VPC missing from the cloud"
  in
  let closed_at = (resource d3).Cloud.updated_at in
  List.iter
    (fun d ->
      check (Alcotest.float 0.) "re-entered the instant the probe closed the cell"
        closed_at (resource d).Cloud.created_at)
    [ d1; d2 ];
  check bool_ "d1 carries the newer revision" true
    (Smap.find_opt "name" (State.attrs (vpc_row d1)) = Some (Value.Vstring "b"))

(* The first waiter's deployment lock is held across the cooldown end,
   so its re-admission queues behind the lock; the second waiter is
   admitted at once and takes the probe at 10 s.  The first completes
   only after the lock is released at 60 s. *)
let test_lock_blocked_waiter_does_not_delay_probe () =
  let cloud, fleet, shard, b = cell_fleet () in
  let dep t =
    Fleet.add_deployment fleet ~tenant:t ~dname:"prod" ~src:(vpc_named "a")
  in
  let d1 = dep "t1" and d2 = dep "t2" in
  let at time f = Cloud.schedule_at cloud ~time f in
  let r1 = ref (-1) and r2 = ref (-1) and at_probe = ref Breaker.Closed in
  at 0. (fun () -> trip cloud b create_vpc);
  at 1. (fun () ->
      r1 := submit fleet d1 (vpc_named "a");
      r2 := submit fleet d2 (vpc_named "a"));
  at 9. (fun () ->
      check bool_ "operator holds d1's lock" true
        (Lock_manager.try_acquire (Shard.lock shard) ~owner:"operator"
           ~keys:[ d1.Shard.root_key ]));
  at 10.001 (fun () ->
      let kind, rtype = create_vpc in
      at_probe := Breaker.state b ~kind ~rtype);
  at 60. (fun () -> Lock_manager.release (Shard.lock shard) ~owner:"operator");
  Fleet.run fleet ~until:300.;
  check bool_ "the probe went out at the cooldown end" true
    (!at_probe = Breaker.Half_open);
  check bool_ "the second waiter finished while d1 was locked" true
    (completed_at fleet !r2 < 60.);
  check bool_ "the first waiter finished after the release" true
    (completed_at fleet !r1 >= 60.);
  check int_ "nothing parked" 0 (Shard.parked_work shard)

let sg_rule_src ~from_port ~to_port =
  Printf.sprintf
    {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_security_group" "web" {
  vpc_id = aws_vpc.main.id
  name   = "web"
  region = "us-east-1"
}
resource "aws_security_group_rule" "in" {
  security_group_id = aws_security_group.web.id
  type              = "ingress"
  from_port         = %d
  to_port           = %d
  protocol          = "tcp"
  region            = "us-east-1"
}
|}
    from_port to_port

(* Three rule updates park on update/aws_security_group_rule.  The
   first waiter's probe inverts its port range, and the cloud answers
   Invalid: the answer closes the cell, so the other two wake and
   finish, and nothing stays parked. *)
let test_invalid_probe_wakes_waiters () =
  let cloud, fleet, shard, b = cell_fleet () in
  let good = sg_rule_src ~from_port:80 ~to_port:80 in
  let dep t = Fleet.add_deployment fleet ~tenant:t ~dname:"prod" ~src:good in
  let deps = [ dep "t1"; dep "t2"; dep "t3" ] in
  let at time f = Cloud.schedule_at cloud ~time f in
  let cell = ("update", "aws_security_group_rule") in
  at 0. (fun () -> List.iter (fun d -> ignore (submit fleet d good)) deps);
  at 100. (fun () -> trip cloud b cell);
  at 101. (fun () ->
      List.iteri
        (fun i d ->
          ignore
            (submit fleet d
               (if i = 0 then sg_rule_src ~from_port:100 ~to_port:10
                else sg_rule_src ~from_port:443 ~to_port:443)))
        deps;
      check int_ "three parked" 3 (Shard.parked_work shard));
  Fleet.run fleet ~until:400.;
  let m = Fleet.metrics fleet in
  check int_ "every request done" 6 (Metrics.counter m "requests_done");
  check int_ "only the inverted range failed" 1
    (Metrics.counter m "work_failures");
  check int_ "nothing parked" 0 (Shard.parked_work shard);
  let kind, rtype = cell in
  check bool_ "the cell closed" true
    (Breaker.state b ~kind ~rtype = Breaker.Closed);
  List.iteri
    (fun i (d : Shard.deployment) ->
      if i > 0 then
        check bool_ "the rule carries the new port" true
          (List.exists
             (fun (r : State.resource_state) ->
               r.State.rtype = "aws_security_group_rule"
               && Smap.find_opt "from_port" (State.attrs r)
                  = Some (Value.Vint 443))
             (State.resources d.Shard.state)))
    deps

(* ------------------------------------------------------------------ *)
(* Chaos determinism on the fleet                                      *)
(* ------------------------------------------------------------------ *)

let chaos_scenario =
  "tenants = 6\n\
   shards = 2\n\
   resources = 8\n\
   requests_per_tenant = 2\n\
   request_interval = 300\n\
   drift_events = 0\n\
   drift_period = 60\n\
   policy_period = 0\n\
   duration = 1000\n\
   breaker = on\n\
   calm_tenants = 1\n\
   episode = kind=outage start=20 end=120\n\
   episode = kind=error_storm rtype=aws_instance p=0.6 start=280 end=420\n\
   episode = kind=spot count=2 start=600\n"

let chaos_run () =
  let scn = Scenario.parse chaos_scenario in
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:11 ()
  in
  let config = Scenario.service_config scn Shard.fleet_service in
  let fleet = ref (Fleet.create ~cloud ~shards:scn.Scenario.shards config) in
  let _injections = Scenario.install_fleet scn fleet in
  Fleet.run !fleet ~until:scn.Scenario.duration;
  !fleet

let test_chaos_determinism () =
  let a = Metrics.to_json (Fleet.metrics (chaos_run ())) in
  let b = Metrics.to_json (Fleet.metrics (chaos_run ())) in
  check bool_ "byte-identical snapshots" true (String.equal a b)

let test_chaos_converges () =
  let fleet = chaos_run () in
  let scn = Scenario.parse chaos_scenario in
  check int_ "managed rows" (scn.Scenario.tenants * scn.Scenario.resources)
    (Fleet.managed_resource_count fleet);
  let m = Fleet.metrics fleet in
  check int_ "requests done"
    (scn.Scenario.tenants * scn.Scenario.requests_per_tenant)
    (Metrics.counter m "requests_done");
  let violations =
    List.fold_left
      (fun acc s ->
        acc + match Shard.breaker s with Some b -> Breaker.violations b | None -> 0)
      0 (Fleet.shards fleet)
  in
  check int_ "no calls through an open breaker" 0 violations

(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "resilience.breaker",
      [
        Alcotest.test_case "trip/probe/close cycle" `Quick
          test_breaker_trip_cycle;
        Alcotest.test_case "transition observer" `Quick
          test_breaker_transitions_observed;
        qtest prop_never_proceed_while_open;
      ] );
    ( "resilience.episodes",
      [
        Alcotest.test_case "window matching" `Quick test_episode_windows;
        Alcotest.test_case "verdicts" `Quick test_episode_verdicts;
        Alcotest.test_case "quota floor" `Quick test_quota_floor;
        Alcotest.test_case "activity-log markers" `Quick
          test_cloud_episode_markers;
      ] );
    ( "resilience.scenario-grammar",
      [
        Alcotest.test_case "episode lines parse" `Quick
          test_episode_grammar_ok;
        Alcotest.test_case "malformed lines are located errors" `Quick
          test_episode_grammar_errors;
      ] );
    ( "resilience.degraded-mode",
      [
        Alcotest.test_case "outage diagnostic" `Quick test_outage_diagnostic;
        Alcotest.test_case "an answered probe settles its cell" `Quick
          test_probe_answer_settles_cell;
        Alcotest.test_case "scan shed + drain" `Quick test_scan_shed_and_drain;
        Alcotest.test_case "parked request converges to newest revision"
          `Quick test_parked_request_converges_to_newest;
        Alcotest.test_case "parked work waits on its own cell" `Quick
          test_parked_waits_on_its_cell;
        Alcotest.test_case "a closing cell wakes its waiters in park order"
          `Quick test_close_wakes_in_park_order;
        Alcotest.test_case "a lock-blocked waiter does not delay the probe"
          `Quick test_lock_blocked_waiter_does_not_delay_probe;
        Alcotest.test_case "an invalid probe answer wakes every waiter"
          `Quick test_invalid_probe_wakes_waiters;
        Alcotest.test_case "chaos determinism" `Quick test_chaos_determinism;
        Alcotest.test_case "chaos convergence" `Quick test_chaos_converges;
      ] );
  ]
