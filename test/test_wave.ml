(* E18 wave tests: the wave planner's slicing invariants (QCheck),
   the strict [wave =] sub-grammar of the scenario DSL, Wave_mark
   journal durability (roundtrip + cursor/restore), and a golden
   bad-change trace: canary gate trip -> wave rollback -> later waves
   halted, fleet left violation-free. *)

module Cloud = Cloudless_sim.Cloud
module Journal = Cloudless_state.Journal
module Fleet = Cloudless_controlplane.Fleet
module Shard = Cloudless_controlplane.Shard
module Scenario = Cloudless_controlplane.Scenario
module Rollout = Cloudless_controlplane.Rollout
module Change = Cloudless_wave.Change
module Planner = Cloudless_wave.Planner
module Wave = Cloudless_wave.Wave
module Rego_like = Cloudless_policy.Rego_like
module Cloud_rules = Cloudless_schema.Cloud_rules
module Err = Cloudless_error

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Planner slicing invariants                                          *)
(* ------------------------------------------------------------------ *)

let schedule_params = QCheck.(triple (int_range 1 5) (int_range 1 4) (int_range 0 40))

let prop_concat_reproduces_items =
  QCheck.Test.make ~count:300 ~name:"concat of waves = items, in order"
    schedule_params (fun (canary, growth, n) ->
      let items = List.init n (fun i -> i) in
      List.concat (Planner.waves ~canary ~growth items) = items)

let prop_no_empty_wave =
  QCheck.Test.make ~count:300 ~name:"no wave is empty" schedule_params
    (fun (canary, growth, n) ->
      let items = List.init n (fun i -> i) in
      List.for_all (fun w -> w <> []) (Planner.waves ~canary ~growth items))

let prop_geometric_schedule =
  QCheck.Test.make ~count:300
    ~name:"sizes follow canary*growth^k except the remainder"
    schedule_params (fun (canary, growth, n) ->
      let items = List.init n (fun i -> i) in
      let sizes = List.map List.length (Planner.waves ~canary ~growth items) in
      let k = List.length sizes in
      List.for_all2
        (fun i size ->
          let expected =
            canary * int_of_float (float_of_int growth ** float_of_int i)
          in
          if i < k - 1 then size = expected else size <= expected)
        (List.init k (fun i -> i))
        sizes)

let prop_wave_sizes_agree =
  QCheck.Test.make ~count:300 ~name:"wave_sizes matches the actual slicing"
    schedule_params (fun (canary, growth, n) ->
      let items = List.init n (fun i -> i) in
      Planner.wave_sizes ~canary ~growth n
      = List.map List.length (Planner.waves ~canary ~growth items))

let test_planner_rejects_degenerate () =
  check bool_ "canary 0 rejected" true
    (match Planner.waves ~canary:0 ~growth:2 [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check bool_ "growth 0 rejected" true
    (match Planner.waves ~canary:1 ~growth:0 [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scenario [wave =] sub-grammar                                       *)
(* ------------------------------------------------------------------ *)

let parse_err src =
  match Scenario.parse ~file:"t.scn" src with
  | (_ : Scenario.t) -> Alcotest.fail "parse accepted a malformed scenario"
  | exception Err.Error d -> d

let test_wave_grammar_ok () =
  let scn =
    Scenario.parse ~file:"t.scn"
      "tenants = 8\n\
       wave = start=600 attr=instance_type value=t3.micro\n\
       wave = start=900 kind=set_count count=4 canary=2 growth=3 \
       check=15 budget=50\n"
  in
  check int_ "two waves" 2 (List.length scn.Scenario.waves);
  (match scn.Scenario.waves with
  | [ a; b ] ->
      check bool_ "first wave start" true (a.Scenario.wstart = 600.);
      check int_ "default canary" 1 a.Scenario.wchange.Change.canary;
      check int_ "default growth" 2 a.Scenario.wchange.Change.growth;
      check bool_ "default check period" true (a.Scenario.wcheck = 60.);
      check int_ "second wave canary" 2 b.Scenario.wchange.Change.canary;
      check int_ "second wave growth" 3 b.Scenario.wchange.Change.growth;
      check bool_ "second wave check" true (b.Scenario.wcheck = 15.);
      check bool_ "budget carried" true
        (b.Scenario.wchange.Change.budget = Some 50.);
      check bool_ "located change name" true
        (contains ~sub:"t.scn:2" a.Scenario.wchange.Change.cname)
  | _ -> Alcotest.fail "waves out of order");
  let forbid =
    Scenario.parse ~file:"t.scn"
      "tenants = 2\nwave = start=10 attr=itype value=bad forbid=bad\n"
  in
  match forbid.Scenario.waves with
  | [ w ] -> check int_ "forbid compiles to one gate" 1
               (List.length w.Scenario.wchange.Change.gates)
  | _ -> Alcotest.fail "expected one wave"

let test_wave_grammar_errors () =
  let cases =
    [
      (* unknown sub-key, with the offending line located *)
      ("tenants = 2\nwave = start=1 attr=a value=v blast=9\n",
       "unknown wave key", 2);
      ("wave = start=1 kind=recolor\n", "unknown wave kind", 1);
      ("wave = attr=a value=v\n", "requires start", 1);
      ("wave = start=1 attr=a value=v canary=0\n", "canary must be >= 1", 1);
      ("wave = start=1 attr=a value=v growth=0\n", "growth must be >= 1", 1);
      ("wave = start=1 value=v\n", "requires attr", 1);
      ("wave = start=1 attr=a\n", "requires value", 1);
      ("wave = start=1 kind=set_count\n", "requires count", 1);
      (* kind-inapplicable keys are rejected, not ignored *)
      ("wave = start=1 attr=a value=v count=3\n", "only applies to kind=set_count", 1);
      ("wave = start=1 kind=set_count count=3 attr=a\n",
       "only apply to kind=set_attr", 1);
      ("wave = start=1 kind=set_count count=3 forbid=bad\n",
       "forbid= requires attr", 1);
      ("wave = start=abc attr=a value=v\n", "expects a number", 1);
      (* every number is finite and in range; the gate check period is
         above 0 *)
      ("wave = start=1 attr=a value=v check=0\n", "expects a number", 1);
      ("wave = start=1 attr=a value=v check=-1\n", "expects a number", 1);
      ("wave = start=inf attr=a value=v\n", "expects a number", 1);
      ("wave = start=1 attr=a value=v budget=nan\n", "expects a number", 1);
      ("wave = start=1 kind=set_count count=-2\n", "expects an integer", 1);
      ("wave = start=1 attr=a value=v canary=x\n", "expects an integer", 1);
      ("wave = start=1 attr=a value=v nonsense\n", "k=v pairs", 1);
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
(* Wave_mark durability: roundtrip, cursor, restore                    *)
(* ------------------------------------------------------------------ *)

let mark wave wphase tenants wtime =
  Journal.Wave_mark { wave; wphase; tenants; wtime }

let test_wave_mark_roundtrip () =
  let entries =
    [
      mark 1 "started" [ "tenant0" ] 600.;
      mark 1 "committed" [ "tenant0" ] 660.;
      mark 2 "started" [ "tenant1"; "tenant2" ] 660.;
      mark 2 "rolled_back" [ "tenant1"; "tenant2" ] 720.;
      mark 0 "halted" [ "tenant3" ] 720.;
    ]
  in
  let text = Journal.to_string entries in
  check string_ "wave marks roundtrip byte-identically" text
    (Journal.to_string (Journal.of_string text))

let test_wave_cursor () =
  let resume_at entries =
    match Wave.cursor entries with
    | Wave.Resume_at k -> k
    | Wave.Finished p -> Alcotest.fail ("unexpected terminal " ^ p)
  in
  check int_ "empty journal starts from scratch" 0 (resume_at []);
  check int_ "started-but-uncommitted does not advance" 0
    (resume_at [ mark 1 "started" [ "t0" ] 1. ]);
  check int_ "commits advance the cursor past the last committed wave" 3
    (resume_at
       [
         mark 1 "started" [ "t0" ] 1.;
         mark 1 "committed" [ "t0" ] 2.;
         mark 2 "started" [ "t1" ] 2.;
         mark 2 "committed" [ "t1" ] 3.;
         mark 3 "started" [ "t2" ] 3.;
       ]);
  (match
     Wave.cursor
       [ mark 1 "committed" [ "t0" ] 1.; mark 2 "rolled_back" [ "t1" ] 2. ]
   with
  | Wave.Finished p -> check string_ "rollback is terminal" "rolled_back" p
  | Wave.Resume_at _ -> Alcotest.fail "rolled_back journal is not resumable");
  match Wave.cursor [ mark 0 "halted" [ "t1"; "t2" ] 2. ] with
  | Wave.Finished p -> check string_ "halt is terminal" "halted" p
  | Wave.Resume_at _ -> Alcotest.fail "halted journal is not resumable"

let small_change () =
  match
    Change.parse ~file:"<test>"
      {|
change "retype" {
  canary = 1
  growth = 2
  action "bump" {
    kind   = "set_attr"
    target = "aws_instance.*"
    attr   = "instance_type"
    value  = "t3.large"
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

let test_wave_restore () =
  let tenants = [ "t0"; "t1"; "t2"; "t3" ] in
  let j = Journal.create () in
  let wv = Wave.create ~change:(small_change ()) ~tenants ~journal:j () in
  Wave.start wv 0 ~time:10.;
  Wave.commit wv 0 ~time:20.;
  Wave.start wv 1 ~time:20.;
  (* crash here: the canary committed, wave 1 in flight *)
  let entries = Journal.entries j in
  check int_ "cursor points at the first uncommitted wave" 1
    (match Wave.cursor entries with
    | Wave.Resume_at k -> k
    | Wave.Finished _ -> -1);
  let wv' =
    Wave.restore
      (Wave.create ~change:(small_change ()) ~tenants ())
      entries
  in
  (match Wave.next wv' with
  | Some w -> check int_ "resume re-runs the uncommitted wave" 1 w.Wave.index
  | None -> Alcotest.fail "restored machine has no next wave");
  check bool_ "committed tenants restored" true
    (Wave.committed_tenants wv' = [ "t0" ])

(* ------------------------------------------------------------------ *)
(* Golden bad-change trace on a live fleet                             *)
(* ------------------------------------------------------------------ *)

let scenario ~tenants ~shards =
  {
    Scenario.default with
    Scenario.tenants;
    shards;
    deployments_per_tenant = 1;
    resources = 6;
    requests_per_tenant = 1;
    drift_events = 0;
    policy_period = 0.;
    duration = 7200.;
  }

let build_fleet ~scn ~seed =
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed ()
  in
  let config = Scenario.service_config scn Shard.fleet_service in
  let fleet = ref (Fleet.create ~cloud ~shards:scn.Scenario.shards config) in
  for ti = 0 to scn.Scenario.tenants - 1 do
    let tenant = Printf.sprintf "tenant%d" ti in
    let dep =
      Fleet.add_deployment !fleet ~tenant ~dname:"d0"
        ~src:(Scenario.fleet_src scn ~wave:0)
    in
    ignore
      (Fleet.submit_request !fleet dep ~src:(Scenario.fleet_src scn ~wave:0)
        : [ `Accepted of int | `Deferred of int | `Rejected ])
  done;
  fleet

let violating_tenants fleet (change : Change.t) =
  List.filter
    (fun (dep : Shard.deployment) ->
      Rego_like.evaluate change.Change.gates
        (Shard.expand ~state:dep.Shard.state dep.Shard.config_src)
      <> [])
    (Fleet.deployments fleet)
  |> List.map (fun (d : Shard.deployment) -> d.Shard.tenant)

let bad_change () =
  match
    Change.parse ~file:"<test>"
      {|
change "bad" {
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

let test_bad_change_trace () =
  let scn = scenario ~tenants:4 ~shards:1 in
  let change = bad_change () in
  let fleet = build_fleet ~scn ~seed:42 in
  let journal = Journal.create () in
  let driver = Rollout.create ~journal ~check_period:30. ~change fleet () in
  Rollout.launch driver ~at:600.;
  Fleet.run !fleet ~until:7200.;
  (* gate trips at the canary boundary: exactly one tenant ever touched *)
  (match Rollout.outcome driver with
  | Some (Rollout.Rolled_back reasons) ->
      check bool_ "gate reason names the predicate" true
        (List.exists (contains ~sub:"no_nano") reasons)
  | other ->
      Alcotest.fail
        ("expected Rolled_back, got "
        ^
        match other with
        | None -> "still running"
        | Some o -> Rollout.outcome_to_string o))
  ;
  check int_ "blast radius = canary wave" 1
    (List.length (Rollout.touched_tenants driver));
  check int_ "no tenant left violating after rollback" 0
    (List.length (violating_tenants !fleet change));
  check bool_ "no wave ever committed" true
    (Rollout.committed_tenants driver = []);
  (* wave statuses: canary rolled back, every later wave halted *)
  (match Wave.waves (Rollout.wave_machine driver) with
  | first :: rest ->
      check bool_ "canary rolled back" true
        (first.Wave.status = Wave.Rolled_back);
      check bool_ "later waves halted" true
        (List.for_all (fun w -> w.Wave.status = Wave.Halted) rest);
      check bool_ "later waves exist" true (rest <> [])
  | [] -> Alcotest.fail "no waves planned");
  (* the durable record agrees: terminal rolled_back *)
  (match Wave.cursor (Journal.entries journal) with
  | Wave.Finished p -> check string_ "journal is terminal" "rolled_back" p
  | Wave.Resume_at _ -> Alcotest.fail "journal not terminal after rollback");
  (* the trace reads like the story above *)
  let log = String.concat "\n" (List.map snd (Rollout.events driver)) in
  check bool_ "trace mentions the gate failure" true
    (contains ~sub:"gate FAILED" log);
  check bool_ "trace mentions the halt" true
    (contains ~sub:"later waves halted" log)

let test_clean_change_converges () =
  let scn = scenario ~tenants:4 ~shards:1 in
  let change = small_change () in
  let fleet = build_fleet ~scn ~seed:42 in
  let driver = Rollout.create ~check_period:30. ~change fleet () in
  Rollout.launch driver ~at:600.;
  Fleet.run !fleet ~until:7200.;
  check bool_ "clean change converges" true (Rollout.converged driver);
  check int_ "every tenant committed" 4
    (List.length (Rollout.committed_tenants driver));
  check int_ "no rollbacks" 0 (Rollout.rollbacks driver)

(* `serve` has one code path: it runs a scenario's [wave =] rollouts on
   the scenario's shard count (2 when the file sets none). *)
let test_serve_runs_scenario_waves () =
  let path = Filename.temp_file "serve" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "tenants = 4\n\
         resources = 6\n\
         requests_per_tenant = 1\n\
         drift_events = 0\n\
         policy_period = 0\n\
         duration = 3600\n\
         wave = start=600 attr=instance_type value=t3.micro check=30\n";
      close_out oc;
      let out = Buffer.create 1024 and err = Buffer.create 64 in
      let io =
        { Cloudless.Cli.out = Buffer.add_string out; err = Buffer.add_string err }
      in
      let code =
        Cloudless.Cli.serve ~io ~metrics_path:Filename.null ~scenario_path:path ()
      in
      let out = Buffer.contents out in
      check int_ "exit code" 0 code;
      check string_ "stderr" "" (Buffer.contents err);
      check bool_ "the scenario's default shard count" true
        (contains ~sub:"Fleet: 2 shard(s)" out);
      check bool_ "rollout ran and converged" true
        (contains ~sub:": converged; touched 4/4 tenant(s), committed 4" out);
      check bool_ "no waves-ignored note" false (contains ~sub:"NOTE" out))

(* ------------------------------------------------------------------ *)
(* The driver's caches                                                 *)
(* ------------------------------------------------------------------ *)

module State = Cloudless_state.State
module Value = Cloudless_hcl.Value

let parse_one src =
  match Change.parse ~file:"<test>" src with
  | [ c ] -> c
  | _ -> Alcotest.fail "expected one change block"

(* A gate verdict is kept per deployment for its (config_src, state)
   and reused only while both are unchanged.  Here the canary tenant's
   state gains an attribute no config sets (as a reconcile's refresh
   would record it) after the canary gate passed: its expansion now
   carries the attribute, so the next gate must read it again and
   trip. *)
let test_gate_rereads_changed_state () =
  let scn = scenario ~tenants:4 ~shards:1 in
  let change =
    parse_one
      {|
change "retype" {
  canary = 1
  growth = 2
  action "bump" {
    kind   = "set_attr"
    target = "aws_instance.*"
    attr   = "instance_type"
    value  = "t3.large"
  }
  gate "no_quarantine" {
    kind  = "attr_present"
    rtype = "aws_instance"
    attr  = "quarantined"
  }
}
|}
  in
  let fleet = build_fleet ~scn ~seed:42 in
  let driver = Rollout.create ~check_period:30. ~change fleet () in
  Rollout.launch driver ~at:600.;
  let cloud = Fleet.cloud !fleet in
  let quarantined = ref false in
  let rec watch () =
    Cloud.schedule cloud ~delay:5. (fun () ->
        if Rollout.gate_checks driver = 1 && not !quarantined then begin
          (match Rollout.committed_tenants driver with
          | [ canary ] -> (
              match Fleet.find_deployment !fleet ~tenant:canary ~dname:"d0" with
              | Some dep ->
                  let r =
                    List.find
                      (fun (r : State.resource_state) ->
                        r.State.rtype = "aws_instance")
                      (State.resources dep.Shard.state)
                  in
                  dep.Shard.state <-
                    State.update_attrs dep.Shard.state r.State.addr
                      (Value.Smap.add "quarantined"
                         (Value.Vstring "yes") (State.attrs r));
                  quarantined := true
              | None -> Alcotest.fail "no canary deployment")
          | _ -> Alcotest.fail "expected the canary alone committed")
        end;
        if Rollout.outcome driver = None then watch ())
  in
  watch ();
  Fleet.run !fleet ~until:7200.;
  check bool_ "the canary's state changed after its gate" true !quarantined;
  check int_ "two gates" 2 (Rollout.gate_checks driver);
  match Rollout.outcome driver with
  | Some (Rollout.Rolled_back reasons) ->
      check bool_ "the second gate names the new violation" true
        (List.exists (contains ~sub:"no_quarantine") reasons)
  | other ->
      Alcotest.failf "expected the second gate to trip, got %s"
        (match other with
        | None -> "still running"
        | Some o -> Rollout.outcome_to_string o)

(* A rewrite is kept per config source, but a source that fails to
   parse keeps nothing: every wave submission that reaches it raises
   the parse diagnostic again. *)
let test_failed_rewrite_not_cached () =
  let scn = scenario ~tenants:2 ~shards:1 in
  let cloud =
    Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:42 ()
  in
  let fleet =
    ref
      (Fleet.create ~cloud ~shards:1
         (Scenario.service_config scn Shard.fleet_service))
  in
  List.iter
    (fun tenant ->
      ignore
        (Fleet.add_deployment !fleet ~tenant ~dname:"d0"
           ~src:{|resource "aws_instance" "web" {|}))
    [ "tenant0"; "tenant1" ];
  let driver = Rollout.create ~change:(small_change ()) fleet () in
  let submit () =
    match Rollout.start driver with
    | () -> Alcotest.fail "a source that does not parse was rewritten"
    | exception Err.Error d -> d.Err.Diagnostic.message
  in
  let first = submit () in
  check string_ "the same diagnostic on the second submission" first
    (submit ());
  check int_ "nothing submitted" 0 (Rollout.submitted driver)

(* E18's two gated legs at full size (64 tenants, 4 shards, seed 42)
   report the counts of a driver that rewrites every source and
   re-evaluates every gate read: caching rewrites and verdicts saves
   work, not management calls.  The bad leg's figures are also in the
   committed BENCH_wave.json (10 management calls, 1 gate check). *)
let test_e18_counts_unchanged () =
  let e18_change value =
    parse_one
      (Printf.sprintf
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
         value)
  in
  let scn = scenario ~tenants:64 ~shards:4 in
  let leg value =
    let cloud =
      Cloud.create ~config:(Cloud_rules.config_with_checks ()) ~seed:42 ()
    in
    let fleet =
      ref
        (Fleet.create ~cloud ~shards:4
           (Scenario.service_config scn Shard.fleet_service))
    in
    Scenario.bootstrap scn !fleet;
    let driver =
      Rollout.create ~journal:(Journal.create ()) ~check_period:30.
        ~change:(e18_change value) fleet ()
    in
    Rollout.launch driver ~at:600.;
    Fleet.run !fleet ~until:7200.;
    ( Rollout.submitted driver,
      Rollout.gate_checks driver,
      Rollout.mgmt_calls driver,
      Rollout.rollbacks driver )
  in
  let counts = Alcotest.(pair (pair int int) (pair int int)) in
  let split (a, b, c, d) = ((a, b), (c, d)) in
  check counts "bad change: submitted, gates, mgmt calls, rollbacks"
    (split (1, 1, 10, 1)) (split (leg "t2.nano"));
  check counts "clean change: submitted, gates, mgmt calls, rollbacks"
    (split (64, 7, 376, 0)) (split (leg "t3.large"))

(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "wave.planner",
      [
        qtest prop_concat_reproduces_items;
        qtest prop_no_empty_wave;
        qtest prop_geometric_schedule;
        qtest prop_wave_sizes_agree;
        Alcotest.test_case "degenerate schedules rejected" `Quick
          test_planner_rejects_degenerate;
      ] );
    ( "wave.scenario-grammar",
      [
        Alcotest.test_case "wave lines parse" `Quick test_wave_grammar_ok;
        Alcotest.test_case "malformed lines are located errors" `Quick
          test_wave_grammar_errors;
      ] );
    ( "wave.journal",
      [
        Alcotest.test_case "wave marks roundtrip" `Quick
          test_wave_mark_roundtrip;
        Alcotest.test_case "cursor semantics" `Quick test_wave_cursor;
        Alcotest.test_case "restore from a mid-rollout journal" `Quick
          test_wave_restore;
      ] );
    ( "wave.rollout",
      [
        Alcotest.test_case "bad change: canary trip, rollback, halt" `Quick
          test_bad_change_trace;
        Alcotest.test_case "clean change converges" `Quick
          test_clean_change_converges;
        Alcotest.test_case "serve runs scenario waves by default" `Quick
          test_serve_runs_scenario_waves;
        Alcotest.test_case "a gate re-reads a tenant whose state changed"
          `Quick test_gate_rereads_changed_state;
        Alcotest.test_case "a failed rewrite raises every time" `Quick
          test_failed_rewrite_not_cached;
        Alcotest.test_case "E18 counts equal the uncached driver's" `Quick
          test_e18_counts_unchanged;
      ] );
  ]
