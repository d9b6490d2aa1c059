(* E17 resilience tests: circuit-breaker state machine (unit + QCheck
   shadow model), the strict episode sub-grammar of the scenario DSL,
   the episode engine's windows/verdicts/quota floors, the executor's
   distinct outage diagnostic, scan shedding under an open breaker,
   and chaos determinism (same seed, byte-identical metrics). *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module Failure = Cloudless_sim.Failure
module Prng = Cloudless_sim.Prng
module Activity_log = Cloudless_sim.Activity_log
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Breaker = Cloudless_deploy.Breaker
module Fleet = Cloudless_controlplane.Fleet
module Shard = Cloudless_controlplane.Shard
module Scenario = Cloudless_controlplane.Scenario
module Metrics = Cloudless_obs.Metrics
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
      check bool_ "offending line located" true
        (contains ~sub:(Printf.sprintf "t.scn:%d:" line)
           d.Err.Diagnostic.message))
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
  let report =
    Executor.apply cloud ~config:Executor.baseline_config ~state:State.empty
      ~plan ?breaker ()
  in
  List.map (fun d -> d.Err.Diagnostic.code) report.Executor.diagnostics

let test_outage_diagnostic () =
  (match run_exhaustion ~with_breaker:true with
  | [ code ] -> check string_ "outage-flavored exhaustion" "retries-exhausted-outage" code
  | codes ->
      Alcotest.fail
        (Printf.sprintf "expected one diagnostic, got [%s]"
           (String.concat "; " codes)));
  match run_exhaustion ~with_breaker:false with
  | [ code ] -> check string_ "generic exhaustion" "retries-exhausted" code
  | codes ->
      Alcotest.fail
        (Printf.sprintf "expected one diagnostic, got [%s]"
           (String.concat "; " codes))

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
        Alcotest.test_case "scan shed + drain" `Quick test_scan_shed_and_drain;
        Alcotest.test_case "chaos determinism" `Quick test_chaos_determinism;
        Alcotest.test_case "chaos convergence" `Quick test_chaos_converges;
      ] );
  ]
