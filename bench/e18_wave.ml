(* E18: fleet-wide bulk-change waves with policy gates and auto-rollback.

   A bulk change ("set instance_type everywhere") expressed once in the
   policy DSL's action vocabulary rolls across a 64-tenant fleet in
   canary -> geometrically growing waves, with a policy/health gate at
   every wave boundary and wave-scoped auto-rollback when the gate
   trips.  Three legs, asserted on the bench's own output:

   - blast radius: a policy-violating change (t2.nano, forbidden by a
     compliance gate) is stopped at the canary wave — at most wave-1
     tenants ever receive it, all of them are rolled back to the
     pre-wave revision (zero residual violations), later waves never
     submit.  The naive apply-everywhere baseline pushes the same bad
     change to all 64 tenants.  The price of gating is management-plane
     calls (quiescence polls, gate evaluations), which the bench
     reports;
   - clean rollout: a compliant change converges fleet-wide, wave sizes
     following the canary*growth^k schedule, zero rollbacks;
   - crash-resume: the fleet dies mid-rollout (between wave commits);
     the successor restores the committed-wave boundary from the wave
     journal's Wave_mark records, re-submits from the first uncommitted
     wave, and converges with 0 orphans, 0 duplicate creates and a
     state digest byte-identical to an uncrashed run.

   Results land in BENCH_wave.json (BENCH_wave_quick.json with --quick,
   which shrinks the fleet to 16 tenants / 2 shards). *)

open Bench_util
open Fleet_harness
module Journal = Cloudless_state.Journal
module Rollout = Cloudless_controlplane.Rollout
module Change = Cloudless_wave.Change
module Planner = Cloudless_wave.Planner
module Wave = Cloudless_wave.Wave
module Rego_like = Cloudless_policy.Rego_like

let exp = "e18"
let resources = 6
let duration = 7200.
let launch_at = 600.
let check_period = 30.

(* Both changes parse from source — the same path `cloudless rollout`
   takes.  The gate forbids t2.nano: the bad change violates it on the
   canary tenant's own instances, the clean one never does. *)
let change_src value =
  Printf.sprintf
    {|
change "set_itype" {
  canary = 1
  growth = 2

  action "bump" {
    kind   = "set_attr"
    target = "aws_instance.*"
    attr   = "instance_type"
    value  = %S
  }

  gate "no_nano" {
    kind    = "attr_equals"
    rtype   = "aws_instance"
    attr    = "instance_type"
    value   = "t2.nano"
    message = "t2.nano is forbidden by compliance"
  }
}
|}
    value

let parse_change value =
  match Change.parse ~file:"<e18>" (change_src value) with
  | [ c ] -> c
  | _ -> failwith "e18: expected exactly one change block"

let bad_change () = parse_change "t2.nano"
let clean_change () = parse_change "t3.large"

let scenario ~tenants ~shards =
  {
    Scenario.default with
    Scenario.tenants;
    shards;
    deployments_per_tenant = 1;
    resources;
    requests_per_tenant = 1;
    drift_events = 0;
    policy_period = 0.;
    duration;
  }

(* Fleet with every tenant registered and its initial apply submitted,
   on a cloud with the default API budgets.  The scenario's request
   and drift schedule is not installed, so the only traffic after
   settling is the rollout's own. *)
let build_fleet ~scn ~seed =
  let config = Scenario.service_config scn Shard.fleet_service in
  let fleet =
    Fleet.create ~cloud:(fresh_cloud ~seed ()) ~shards:scn.Scenario.shards config
  in
  Scenario.bootstrap scn fleet;
  ref fleet

type gated = {
  fleet : Fleet.t ref;
  driver : Rollout.t;
  journal : Journal.t;
  crashed : bool;
}

let run_gated ?crash ~scn ~change ~seed () =
  let fleet = build_fleet ~scn ~seed in
  let journal = Journal.create () in
  let driver = Rollout.create ~journal ~check_period ~change fleet () in
  Rollout.launch driver ~at:launch_at;
  { fleet; driver; journal; crashed = drive ?crash fleet ~until:duration }

(* The baseline: no waves, no gate — rewrite every tenant's config and
   submit all of it at the same instant. *)
let run_naive ~scn ~change ~seed =
  let fleet = build_fleet ~scn ~seed in
  let cloud = Fleet.cloud !fleet in
  let reached = ref 0 in
  Cloud.schedule cloud ~delay:launch_at (fun () ->
      let f = !fleet in
      List.iter
        (fun (dep : Shard.deployment) ->
          match
            Planner.rewrite_src change ~file:"<naive>" dep.Shard.config_src
          with
          | Some src ->
              incr reached;
              ignore
                (Fleet.submit_request f dep ~src
                  : [ `Accepted of int | `Deferred of int | `Rejected ])
          | None -> ())
        (Fleet.deployments f));
  Fleet.run !fleet ~until:duration;
  (fleet, !reached)

(* Gate-predicate violations over the whole fleet's recorded states. *)
let fleet_violations fleet (change : Change.t) =
  List.concat_map
    (fun (dep : Shard.deployment) ->
      Rego_like.evaluate change.Change.gates
        (Shard.expand ~state:dep.Shard.state dep.Shard.config_src))
    (Fleet.deployments fleet)

let violating_tenants fleet (change : Change.t) =
  List.filter
    (fun (dep : Shard.deployment) ->
      Rego_like.evaluate change.Change.gates
        (Shard.expand ~state:dep.Shard.state dep.Shard.config_src)
      <> [])
    (Fleet.deployments fleet)
  |> List.map (fun (d : Shard.deployment) -> d.Shard.tenant)
  |> List.sort_uniq String.compare

(* --- leg 1: blast radius --------------------------------------------- *)

type blast_result = {
  tenants : int;
  shards : int;
  wave1_size : int;
  reached_gated : int;  (** tenants the bad change was ever submitted to *)
  reached_naive : int;
  residual_gated : int;  (** violating tenants after gated run + rollback *)
  residual_naive : int;
  rolled_back : bool;
  rollback_latency : float;
  gated_mgmt_calls : int;
  gate_checks : int;
  gated_api_calls : int;
  naive_api_calls : int;
}

let run_blast_leg ~tenants ~shards ~seed =
  let scn = scenario ~tenants ~shards in
  let change = bad_change () in
  let { fleet; driver; _ } as g = run_gated ~scn ~change ~seed () in
  claim exp (not g.crashed) "unexpected crash in blast leg";
  let rolled_back =
    match Rollout.outcome driver with
    | Some (Rollout.Rolled_back _) -> true
    | _ -> false
  in
  let naive_fleet, reached_naive = run_naive ~scn ~change ~seed in
  {
    tenants;
    shards;
    wave1_size =
      (match Planner.wave_sizes ~canary:change.Change.canary
               ~growth:change.Change.growth tenants with
      | w :: _ -> w
      | [] -> 0);
    reached_gated = List.length (Rollout.touched_tenants driver);
    reached_naive;
    residual_gated = List.length (violating_tenants !fleet change);
    residual_naive = List.length (violating_tenants !naive_fleet change);
    rolled_back;
    rollback_latency = Option.value ~default:(-1.) (Rollout.rollback_latency driver);
    gated_mgmt_calls = Rollout.mgmt_calls driver;
    gate_checks = Rollout.gate_checks driver;
    gated_api_calls = Metrics.counter (Fleet.metrics !fleet) "api_calls";
    naive_api_calls = Metrics.counter (Fleet.metrics !naive_fleet) "api_calls";
  }

(* --- leg 2: clean rollout -------------------------------------------- *)

type clean_result = {
  converged : bool;
  committed : int;
  waves : int;
  expected_waves : int;
  rollbacks : int;
  clean_violations : int;
  retyped : bool;  (** every instance actually carries the new type *)
}

let run_clean_leg ~tenants ~shards ~seed =
  let scn = scenario ~tenants ~shards in
  let change = clean_change () in
  let { fleet; driver; _ } as g = run_gated ~scn ~change ~seed () in
  claim exp (not g.crashed) "unexpected crash in clean leg";
  let fleet = !fleet in
  let retyped =
    List.for_all
      (fun (dep : Shard.deployment) ->
        List.for_all
          (fun (r : Cloudless_state.State.resource_state) ->
            r.Cloudless_state.State.rtype <> "aws_instance"
            || Cloudless_hcl.Value.Smap.find_opt "instance_type"
                 (Cloudless_state.State.attrs r)
               = Some (Cloudless_hcl.Value.Vstring "t3.large"))
          (Cloudless_state.State.resources dep.Shard.state))
      (Fleet.deployments fleet)
  in
  {
    converged = Rollout.converged driver;
    committed = List.length (Rollout.committed_tenants driver);
    waves = List.length (Wave.waves (Rollout.wave_machine driver));
    expected_waves =
      List.length
        (Planner.wave_sizes ~canary:(clean_change ()).Change.canary
           ~growth:(clean_change ()).Change.growth tenants);
    rollbacks = Rollout.rollbacks driver;
    clean_violations = List.length (fleet_violations fleet (clean_change ()));
    retyped;
  }

(* --- leg 3: crash mid-rollout, resume from the wave journal ---------- *)

type crash_result = {
  leg : crash;
  crashed_mid_rollout : bool;
  resumed_from_wave : int;
  resumed_converged : bool;
}

(* 16 tenants / 2 shards and a journaled-write budget that lands the
   crash between wave commits.  The budget is derived from the
   reference run rather than hardcoded: retries inflate the initial
   applies by a seed-dependent amount, but the reference run is the
   same seed and schedule, so its fleet-wide [api_writes] counter is
   exactly the crash run's would-be total.  The rollout itself is the
   last 32 writes (waves of 1/2/4/8/1 tenants x 2 instance updates,
   i.e. cumulative offsets -32/-30/-26/-18/-2 from the total), so
   [total - 10] dies inside the fourth wave with three waves already
   committed.  The bench asserts the landing spot (crashed, rollout
   unfinished, at least the canary committed) so a drift in write
   volume fails loudly instead of silently testing nothing. *)
let crash_margin = 10

let run_crash_leg ~seed =
  let scn = scenario ~tenants:16 ~shards:2 in
  let change = clean_change () in
  let start crash =
    let g = run_gated ?crash ~scn ~change ~seed () in
    if crash = None && not (Rollout.converged g.driver) then
      failwith "e18: reference run did not converge";
    (g.fleet, g.crashed, g)
  in
  (* Where the crash landed, then the rollout's restart from the wave
     journal alongside the resumed fleet. *)
  let resume g fleet =
    let mid_rollout =
      Rollout.outcome g.driver = None && Rollout.touched_tenants g.driver <> []
    in
    let from_wave =
      match Wave.cursor (Journal.entries g.journal) with
      | Wave.Resume_at k -> k
      | Wave.Finished _ -> -1
    in
    Rollout.abandon g.driver;
    let driver = Rollout.resume ~journal:g.journal ~check_period ~change fleet () in
    Rollout.start driver;
    (mid_rollout, from_wave, driver)
  in
  let leg, (crashed_mid_rollout, resumed_from_wave, driver) =
    crash_leg ~exp ~scn ~start ~resume ~crash_after:(fun reference ->
        Metrics.counter (Fleet.metrics reference) "api_writes" - crash_margin)
  in
  {
    leg;
    crashed_mid_rollout;
    resumed_from_wave;
    resumed_converged = Rollout.converged driver;
  }

(* --- JSON ------------------------------------------------------------ *)

let json_file ~quick =
  if quick then "BENCH_wave_quick.json" else "BENCH_wave.json"

let write_json ~quick ~(blast : blast_result) ~(clean : clean_result)
    ~(crash : crash_result) =
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e18_wave\",\n\
    \  \"quick\": %b,\n\
    \  \"tenants\": %d,\n\
    \  \"shards\": %d,\n\
    \  \"resources_per_tenant\": %d,\n\
    \  \"bad_change\": {\"wave1_size\": %d, \"tenants_reached_gated\": %d, \
     \"tenants_reached_naive\": %d, \"residual_violating_gated\": %d, \
     \"residual_violating_naive\": %d, \"rolled_back\": %b, \
     \"rollback_latency_s\": %.1f, \"gated_mgmt_calls\": %d, \
     \"gate_checks\": %d, \"gated_api_calls\": %d, \"naive_api_calls\": %d},\n\
    \  \"clean_change\": {\"converged\": %b, \"committed_tenants\": %d, \
     \"waves\": %d, \"expected_waves\": %d, \"rollbacks\": %d, \
     \"violations\": %d, \"retyped\": %b},\n\
    \  \"crash\": {\"tenants\": 16, \"shards\": 2, \"crash_after\": %d, \
     \"crashed_mid_rollout\": %b, \"resumed_from_wave\": %d, \"orphans\": %d, \
     \"dup_creates\": %d, \"resumed_converged\": %b, \
     \"digest_matches_uncrashed\": %b},\n\
    \  \"summary\": {\"blast_radius_contained\": %b, \"clean_converged\": %b, \
     \"crash_resume_exact\": %b}\n\
     }\n"
    quick blast.tenants blast.shards resources blast.wave1_size
    blast.reached_gated blast.reached_naive blast.residual_gated
    blast.residual_naive blast.rolled_back blast.rollback_latency
    blast.gated_mgmt_calls blast.gate_checks blast.gated_api_calls
    blast.naive_api_calls clean.converged clean.committed clean.waves
    clean.expected_waves clean.rollbacks clean.clean_violations clean.retyped
    crash.leg.crash_after crash.crashed_mid_rollout crash.resumed_from_wave
    crash.leg.orphans crash.leg.dup_creates crash.resumed_converged
    crash.leg.digest_matches_uncrashed
    (blast.reached_gated <= blast.wave1_size
    && blast.residual_gated = 0
    && blast.reached_naive = blast.tenants)
    (clean.converged && clean.committed = blast.tenants)
    (crash.leg.orphans = 0 && crash.leg.dup_creates = 0
   && crash.leg.digest_matches_uncrashed);
  close_out oc

(* --- assertions ------------------------------------------------------ *)

let assert_claims (blast : blast_result) (clean : clean_result)
    (crash : crash_result) =
  claim exp blast.rolled_back "gate did not roll the bad change back";
  claim exp
    (blast.reached_gated <= blast.wave1_size)
    "bad change reached %d tenant(s), wave 1 is %d" blast.reached_gated
    blast.wave1_size;
  claim exp (blast.residual_gated = 0)
    "%d tenant(s) still violating after gated rollback" blast.residual_gated;
  claim exp
    (blast.reached_naive = blast.tenants)
    "naive baseline reached %d/%d tenant(s)" blast.reached_naive blast.tenants;
  claim exp
    (blast.residual_naive = blast.tenants)
    "naive baseline left %d/%d tenant(s) violating" blast.residual_naive
    blast.tenants;
  claim exp (blast.rollback_latency >= 0.) "no rollback latency recorded";
  claim exp (blast.gated_mgmt_calls <> 0) "gating recorded no management calls";
  claim exp clean.converged "clean change did not converge";
  claim exp
    (clean.committed = blast.tenants)
    "clean change committed %d/%d tenant(s)" clean.committed blast.tenants;
  claim exp
    (clean.waves = clean.expected_waves)
    "%d wave(s), schedule says %d" clean.waves clean.expected_waves;
  claim exp (clean.rollbacks = 0) "clean change triggered rollbacks";
  claim exp (clean.clean_violations = 0) "clean change left gate violations";
  claim exp clean.retyped "clean change did not reach every instance";
  claim exp crash.crashed_mid_rollout
    "crash landed outside the rollout window — retune crash_after";
  claim exp
    (crash.resumed_from_wave >= 1)
    "crash landed before the canary committed — retune";
  check_crash ~exp crash.leg;
  claim exp crash.resumed_converged "resumed rollout did not converge"

(* --- driver ---------------------------------------------------------- *)

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E18: bulk-change waves%s"
       (if quick then " (quick)" else ""));
  let seed = 42 in
  let tenants = if quick then 16 else 64 in
  let shards = if quick then 2 else 4 in
  let blast = run_blast_leg ~tenants ~shards ~seed in
  Printf.printf
    "bad change: gated reached %d/%d tenant(s) (wave 1 = %d), naive reached \
     %d; residual violations gated=%d naive=%d; rollback latency %.1fs; \
     gating cost %d mgmt call(s) over %d gate check(s)\n"
    blast.reached_gated blast.tenants blast.wave1_size blast.reached_naive
    blast.residual_gated blast.residual_naive blast.rollback_latency
    blast.gated_mgmt_calls blast.gate_checks;
  let clean = run_clean_leg ~tenants ~shards ~seed in
  Printf.printf
    "clean change: converged=%b committed=%d/%d waves=%d (schedule %d) \
     rollbacks=%d violations=%d\n"
    clean.converged clean.committed tenants clean.waves clean.expected_waves
    clean.rollbacks clean.clean_violations;
  let crash = run_crash_leg ~seed in
  Printf.printf
    "crash leg (16 tenants, 2 shards, crash after write %d): mid_rollout=%b \
     resumed_from_wave=%d orphans=%d dup_creates=%d converged=%b \
     digest_match=%b\n"
    crash.leg.crash_after crash.crashed_mid_rollout crash.resumed_from_wave
    crash.leg.orphans crash.leg.dup_creates crash.resumed_converged
    crash.leg.digest_matches_uncrashed;
  assert_claims blast clean crash;
  write_json ~quick ~blast ~clean ~crash;
  Printf.printf "wrote %s\n" (json_file ~quick)
