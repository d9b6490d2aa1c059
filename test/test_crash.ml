(* Crash safety end to end: atomic state writes, the write-ahead
   deployment journal (round-trip, torn-tail tolerance, idempotent
   replay, the op-id counter), kill-anywhere crash/resume convergence through the
   Lifecycle facade, retry-exhaustion diagnostics, and how the CLI's
   apply and destroy merge a journal a crashed apply left behind. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module Sim_failure = Cloudless_sim.Failure
module Activity_log = Cloudless_sim.Activity_log
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Recovery = Cloudless_deploy.Recovery
module Diagnostic = Cloudless_validate.Diagnostic
module Lifecycle = Cloudless.Lifecycle
module Cli = Cloudless.Cli
module Io_util = Cloudless.Io_util
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_path suffix =
  let path = Filename.temp_file "cloudless_crash" suffix in
  Sys.remove path;
  path

let addr rtype rname = Addr.make ~rtype ~rname ()

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                       *)
(* ------------------------------------------------------------------ *)

let test_write_file_atomic () =
  let path = temp_path ".txt" in
  Io_util.write_file path "first";
  check string_ "fresh write lands" "first" (Io_util.read_file path);
  Io_util.write_file path "second";
  check string_ "overwrite lands" "second" (Io_util.read_file path);
  (* the temporary must never be left behind *)
  check bool_ "no .tmp residue" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Journal serialization                                               *)
(* ------------------------------------------------------------------ *)

let sample_entries =
  let attrs =
    Smap.of_seq
      (List.to_seq
         [
           ("name", Value.Vstring "web \"quoted\"\n");
           ("count", Value.Vint 3);
           ("enabled", Value.Vbool true);
           ("tags", Value.Vlist [ Value.Vstring "a"; Value.Vstring "b" ]);
           ("nested", Value.Vmap (Smap.singleton "k" (Value.Vstring "v")));
           ("nothing", Value.Vnull);
         ])
  in
  [
    Journal.Run_started { engine = "cloudless"; changes = 2; time = 0. };
    Journal.Intent
      {
        Journal.op = 1;
        iaddr = addr "aws_vpc" "main";
        kind = Journal.Op_create;
        rtype = "aws_vpc";
        region = "us-east-1";
        payload = attrs;
        prior_cloud_id = None;
        deps = [ addr "aws_subnet" "s"; Addr.make ~rtype:"aws_eip" ~rname:"e" ~key:(Addr.Kint 2) () ];
        log_cursor = 7;
        itime = 1.5;
      };
    Journal.Outcome
      {
        Journal.oop = 1;
        oaddr = addr "aws_vpc" "main";
        okind = Journal.Op_create;
        ok = true;
        cloud_id = Some "vpc-000001";
        attrs;
        retried = false;
        reason = None;
        otime = 4.25;
      };
    Journal.Outcome
      {
        Journal.oop = 2;
        oaddr = addr "aws_subnet" "s";
        okind = Journal.Op_update;
        ok = false;
        cloud_id = None;
        attrs = Smap.empty;
        retried = true;
        reason = Some "throttled; retry after 1.0s";
        otime = 5.;
      };
    Journal.Run_finished { time = 9.75 };
  ]

let test_journal_round_trip () =
  let text = Journal.to_string sample_entries in
  let back = Journal.of_string text in
  check int_ "all entries survive" (List.length sample_entries)
    (List.length back);
  (* maps re-parsed from text can have a different internal tree shape,
     so equality is judged on the canonical rendering *)
  check string_ "render/parse/render is a fixpoint" text
    (Journal.to_string back)

let test_journal_torn_tail () =
  let text = Journal.to_string sample_entries in
  (* chop the file mid-way through the last line, as a crash during an
     append would *)
  let torn = String.sub text 0 (String.length text - 7) in
  let back = Journal.of_string torn in
  check int_ "only the torn line is dropped"
    (List.length sample_entries - 1)
    (List.length back)

(* A crash tears only the last line: a middle line that does not
   decode is corruption, reported at its line instead of being read as
   the end of the journal. *)
let test_journal_corrupt_middle_line () =
  let text = Journal.to_string sample_entries in
  (* line 2 is "{ e = ...": rename its [e] *)
  let at = String.index text '\n' + 3 in
  let corrupt = String.mapi (fun i c -> if i = at then 'x' else c) text in
  match Journal.of_string ~file:"j.journal" corrupt with
  | _ -> Alcotest.fail "a corrupt middle line was read as a torn tail"
  | exception Cloudless_error.Error d ->
      check string_ "code" "corrupt-journal" d.Diagnostic.code;
      check string_ "file" "j.journal" d.Diagnostic.span.Loc.file;
      check int_ "line" 2 (Loc.line d.Diagnostic.span)

(* A number out of range is refused where it stands: [1e999] in a
   middle line fails at that line, where it would otherwise replay as
   an infinity. *)
let test_journal_out_of_range_number () =
  let text = Journal.to_string sample_entries in
  let rec find i = if String.sub text i 4 = "4.25" then i else find (i + 1) in
  let at = find 0 in
  let line = List.length (String.split_on_char '\n' (String.sub text 0 at)) in
  List.iter
    (fun literal ->
      let edited = String.sub text 0 at ^ literal ^ String.sub text (at + 4) (String.length text - at - 4) in
      match Journal.of_string ~file:"j.journal" edited with
      | _ -> Alcotest.fail (literal ^ " was read")
      | exception Cloudless_error.Error d ->
          check string_ "file" "j.journal" d.Diagnostic.span.Loc.file;
          check int_ "line" line (Loc.line d.Diagnostic.span);
          check bool_ "says out of range" true
            (Test_fixtures.contains_substring ~sub:"out of range" d.Diagnostic.message))
    [ "1e999"; "-1e999" ]

let test_journal_file_load () =
  let path = temp_path ".journal" in
  let j = Journal.create ~path () in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  check string_ "loaded = appended"
    (Journal.to_string sample_entries)
    (Journal.to_string (Journal.load path));
  Sys.remove path

let test_replay_idempotent () =
  let st1 = Journal.replay State.empty sample_entries in
  check int_ "create replayed" 1 (State.size st1);
  let r = Option.get (State.find_opt st1 (addr "aws_vpc" "main")) in
  check string_ "cloud id from outcome" "vpc-000001" r.State.cloud_id;
  check int_ "deps preserved" 2 (List.length r.State.deps);
  let st2 = Journal.replay st1 sample_entries in
  (* identical rows; only the state serial counter may tick *)
  let rows st =
    String.concat "\n"
      (List.filter
         (fun line -> not (contains ~sub:"serial" line))
         (String.split_on_char '\n' (State.to_string st)))
  in
  check string_ "replay is idempotent" (rows st1) (rows st2)

(* ------------------------------------------------------------------ *)
(* The op-id counter                                                   *)
(* ------------------------------------------------------------------ *)

(* Engines seed their op counter from [Journal.last_op], which the
   journal keeps as entries arrive instead of folding them.  It must
   equal [max_op (entries j)] after every append and every abandon,
   whatever the ids (negative, repeated, out of order), the run and
   wave markers, the barriers, the commit mode and the retention. *)
type journal_step =
  | J_intent of int
  | J_outcome of int
  | J_marker of int  (** 0 run started, 1 run finished, 2 wave mark *)
  | J_barrier
  | J_abandon

let journal_step_to_string = function
  | J_intent op -> Printf.sprintf "intent %d" op
  | J_outcome op -> Printf.sprintf "outcome %d" op
  | J_marker k -> Printf.sprintf "marker %d" k
  | J_barrier -> "barrier"
  | J_abandon -> "abandon"

let journal_step_gen =
  let op = QCheck.Gen.(oneof [ int_range (-3) 40; int ]) in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun o -> J_intent o) op);
        (4, map (fun o -> J_outcome o) op);
        (2, map (fun k -> J_marker k) (int_bound 2));
        (1, return J_barrier);
        (1, return J_abandon);
      ])

let journal_entry_of_step = function
  | J_intent op ->
      Some
        (Journal.Intent
           {
             Journal.op;
             iaddr = addr "aws_vpc" "v";
             kind = Journal.Op_create;
             rtype = "aws_vpc";
             region = "us-east-1";
             payload = Smap.empty;
             prior_cloud_id = None;
             deps = [];
             log_cursor = 0;
             itime = 0.;
           })
  | J_outcome op ->
      Some
        (Journal.Outcome
           {
             Journal.oop = op;
             oaddr = addr "aws_vpc" "v";
             okind = Journal.Op_create;
             ok = op mod 2 = 0;
             cloud_id = None;
             attrs = Smap.empty;
             retried = false;
             reason = None;
             otime = 0.;
           })
  | J_marker 0 ->
      Some (Journal.Run_started { engine = "e"; changes = 1; time = 0. })
  | J_marker 1 -> Some (Journal.Run_finished { time = 0. })
  | J_marker _ ->
      Some
        (Journal.Wave_mark
           { wave = 0; wphase = "started"; tenants = [ "t0" ]; wtime = 0. })
  | J_barrier | J_abandon -> None

let prop_last_op_is_max_op =
  let arb =
    QCheck.make
      ~print:(fun (retain, k, steps) ->
        Printf.sprintf "retain=%b mode=%s [%s]" retain
          (if k = 0 then "wal" else Printf.sprintf "group %d" k)
          (String.concat "; " (List.map journal_step_to_string steps)))
      QCheck.Gen.(
        triple bool (int_bound 3) (list_size (int_range 0 40) journal_step_gen))
  in
  QCheck.Test.make ~count:300 ~name:"journal: last_op = max_op (entries)" arb
    (fun (retain, k, steps) ->
      let mode = if k = 0 then Journal.Wal else Journal.Group k in
      let j = Journal.create ~retain ~mode () in
      let agrees () = Journal.last_op j = Journal.max_op (Journal.entries j) in
      List.for_all
        (fun step ->
          (match (step, journal_entry_of_step step) with
          | _, Some e -> Journal.append j e
          | J_barrier, None -> Journal.barrier j
          | _, None -> Journal.abandon j);
          agrees () && (retain || Journal.last_op j = 0))
        steps)

(* ------------------------------------------------------------------ *)
(* Kill-anywhere crash/resume through the Lifecycle                    *)
(* ------------------------------------------------------------------ *)

let fleet_src = Cloudless_workload.Workload.fleet ~resources:10 ()

let engine_creates cloud =
  List.length
    (List.filter
       (fun (e : Activity_log.entry) ->
         match (e.Activity_log.op, e.Activity_log.actor) with
         | Activity_log.Log_create, Activity_log.Iac_engine _ -> true
         | _ -> false)
       (Activity_log.all (Cloud.log cloud)))

let crash_and_resume ?mode ~src ~k () =
  let t = Lifecycle.create ~seed:42 ~engine:Executor.cloudless_config () in
  Lifecycle.enable_journal ?mode t;
  Lifecycle.set_crash t (Sim_failure.Crash_after k);
  match Lifecycle.deploy t src with
  | Ok _ -> (t, None) (* k past the last op *)
  | Error (Lifecycle.Crashed n) -> (
      match Lifecycle.resume t with
      | Ok (_report, rr) -> (t, Some (n, rr))
      | Error e -> Alcotest.failf "resume failed: %s" (Lifecycle.error_to_string e))
  | Error e -> Alcotest.failf "deploy failed: %s" (Lifecycle.error_to_string e)

let test_crash_resume_every_k () =
  for k = 0 to 10 do
    let t, crashed = crash_and_resume ~src:fleet_src ~k () in
    let cloud = Lifecycle.cloud t in
    let state = Lifecycle.state t in
    check int_ (Printf.sprintf "k=%d: all 10 tracked" k) 10 (State.size state);
    check int_
      (Printf.sprintf "k=%d: no orphans" k)
      0
      (List.length (Recovery.orphans cloud ~states:[ state ]));
    check int_
      (Printf.sprintf "k=%d: no duplicate creates" k)
      10 (engine_creates cloud);
    (match Lifecycle.plan t with
    | Ok p ->
        check bool_ (Printf.sprintf "k=%d: converged (empty plan)" k) true
          (Plan.is_empty p)
    | Error e -> Alcotest.failf "plan failed: %s" (Lifecycle.error_to_string e));
    if k < 10 then
      check bool_ (Printf.sprintf "k=%d: crash observed" k) true
        (crashed <> None)
  done

let test_crashed_error_shape () =
  let t = Lifecycle.create ~seed:42 () in
  Lifecycle.enable_journal t;
  Lifecycle.set_crash t (Sim_failure.Crash_after 1);
  match Lifecycle.deploy t fleet_src with
  | Error (Lifecycle.Crashed n as e) ->
      check int_ "died after 1 op" 1 n;
      check bool_ "message mentions the crash" true
        (contains ~sub:"crashed" (Lifecycle.error_to_string e));
      let d = List.hd (Lifecycle.error_diagnostics e) in
      check string_ "diagnostic code" "engine-crashed" d.Diagnostic.code
  | Ok _ -> Alcotest.fail "expected a crash"
  | Error e -> Alcotest.failf "wrong error: %s" (Lifecycle.error_to_string e)

(* Adoption must claim exactly the in-flight creates: with unbounded
   parallelism and a crash mid-fleet, the ops already submitted
   complete on the cloud and every one of them is adopted (not
   re-created), keeping total creates at the fleet size. *)
let test_adoption_accounting () =
  let _, crashed = crash_and_resume ~src:fleet_src ~k:5 () in
  match crashed with
  | Some (n, rr) ->
      check int_ "crash index honoured" 5 n;
      check bool_ "some creates were in flight" true
        (List.length rr.Recovery.adopted > 0);
      (* the crash op's own intent never reached the cloud *)
      check int_ "crash op re-planned" 1 (List.length rr.Recovery.replanned)
  | None -> Alcotest.fail "expected a crash at k=5"

(* ------------------------------------------------------------------ *)
(* Group-commit journal mode                                           *)
(* ------------------------------------------------------------------ *)

(* The E13 kill-anywhere sweep under group commit: intents batch behind
   one flush barrier and their cloud calls are withheld until it runs,
   so the write-ahead invariant holds batch-wise.  A crash may eat up to
   K not-yet-issued ops — recovery must replan those (no intent, no
   cloud activity) and adopt the issued ones, converging with zero
   orphans and zero duplicate creates at every kill point, for every
   batch size. *)
let test_group_crash_resume_every_k () =
  List.iter
    (fun batch ->
      for k = 0 to 10 do
        let t, _ =
          crash_and_resume ~mode:(Journal.Group batch) ~src:fleet_src ~k ()
        in
        let cloud = Lifecycle.cloud t in
        let state = Lifecycle.state t in
        let tag = Printf.sprintf "group %d, k=%d" batch k in
        check int_ (tag ^ ": all 10 tracked") 10 (State.size state);
        check int_ (tag ^ ": no orphans") 0
          (List.length (Recovery.orphans cloud ~states:[ state ]));
        check int_ (tag ^ ": no duplicate creates") 10 (engine_creates cloud);
        match Lifecycle.plan t with
        | Ok p ->
            check bool_ (tag ^ ": converged (empty plan)") true
              (Plan.is_empty p)
        | Error e ->
            Alcotest.failf "%s: plan failed: %s" tag
              (Lifecycle.error_to_string e)
      done)
    [ 1; 3; 64 ]

(* Disk fidelity of the crash window: nothing reaches the file between
   barriers, so abandoning a journal (= the process dying) leaves
   exactly the barrier history on disk — batched intents vanish without
   even a torn tail. *)
let test_group_abandon_disk_fidelity () =
  let intent op =
    Journal.Intent
      {
        Journal.op;
        iaddr = Addr.make ~rtype:"aws_eip" ~rname:"e" ~key:(Addr.Kint op) ();
        kind = Journal.Op_create;
        rtype = "aws_eip";
        region = "us-east-1";
        payload = Smap.empty;
        prior_cloud_id = None;
        deps = [];
        log_cursor = 0;
        itime = float_of_int op;
      }
  in
  let tags entries = List.map (function
    | Journal.Run_started _ -> "start"
    | Journal.Intent i -> Printf.sprintf "intent%d" i.Journal.op
    | Journal.Outcome _ -> "outcome"
    | Journal.Run_finished _ -> "finish"
    | Journal.Wave_mark _ -> "wave")
    entries
  in
  (* two intents below the batch cap of 3: abandoned with the batch *)
  let path = temp_path ".journal" in
  let j = Journal.create ~path ~mode:(Journal.Group 3) () in
  Journal.append j
    (Journal.Run_started { engine = "cloudless"; changes = 5; time = 0. });
  Journal.append j (intent 1);
  Journal.append j (intent 2);
  check
    Alcotest.(list string)
    "in-memory view still has the batch"
    [ "start"; "intent1"; "intent2" ]
    (tags (Journal.entries j));
  Journal.abandon j;
  check
    Alcotest.(list string)
    "disk = barrier history only" [ "start" ]
    (tags (Journal.load path));
  check
    Alcotest.(list string)
    "abandon trims the retained copy to the durable prefix" [ "start" ]
    (tags (Journal.entries j));
  Sys.remove path;
  (* a full batch barriers itself: all three intents survive the crash *)
  let path = temp_path ".journal" in
  let j = Journal.create ~path ~mode:(Journal.Group 3) () in
  Journal.append j
    (Journal.Run_started { engine = "cloudless"; changes = 5; time = 0. });
  List.iter (fun op -> Journal.append j (intent op)) [ 1; 2; 3; 4 ];
  Journal.abandon j;
  check
    Alcotest.(list string)
    "self-triggered barrier at the cap; the straggler dies"
    [ "start"; "intent1"; "intent2"; "intent3" ]
    (tags (Journal.load path));
  Sys.remove path;
  (* WAL mode: every intent is its own barrier — abandon loses nothing
     but a trailing outcome *)
  let path = temp_path ".journal" in
  let j = Journal.create ~path () in
  Journal.append j
    (Journal.Run_started { engine = "cloudless"; changes = 5; time = 0. });
  Journal.append j (intent 1);
  Journal.append j
    (Journal.Outcome
       {
         Journal.oop = 1;
         oaddr = addr "aws_eip" "e";
         okind = Journal.Op_create;
         ok = true;
         cloud_id = Some "eip-1";
         attrs = Smap.empty;
         retried = false;
         reason = None;
         otime = 2.;
       });
  Journal.abandon j;
  check
    Alcotest.(list string)
    "wal: intents durable, trailing outcome in the crash window"
    [ "start"; "intent1" ]
    (tags (Journal.load path));
  Sys.remove path

(* A clean group-commit run must land the same resources and state as
   WAL — the batching only moves flush boundaries, never the simulated
   schedule's outcome. *)
let test_group_clean_run_equals_wal () =
  let run mode =
    let t = Lifecycle.create ~seed:42 ~engine:Executor.cloudless_config () in
    Lifecycle.enable_journal ~mode t;
    match Lifecycle.deploy t fleet_src with
    | Ok report -> (t, report)
    | Error e -> Alcotest.failf "deploy failed: %s" (Lifecycle.error_to_string e)
  in
  let t_wal, r_wal = run Journal.Wal in
  let t_grp, r_grp = run (Journal.Group 4) in
  check
    Alcotest.(list string)
    "same applied set"
    (List.map Addr.to_string r_wal.Executor.applied)
    (List.map Addr.to_string r_grp.Executor.applied);
  check string_ "same final state"
    (State.to_string (Lifecycle.state t_wal))
    (State.to_string (Lifecycle.state t_grp));
  check (Alcotest.float 1e-9) "same makespan" r_wal.Executor.makespan
    r_grp.Executor.makespan;
  let unresolved t =
    match Lifecycle.journal t with
    | Some j -> List.length (Journal.unresolved (Journal.entries j))
    | None -> -1
  in
  check int_ "group journal fully resolved" 0 (unresolved t_grp)

(* ------------------------------------------------------------------ *)
(* Determinism + golden trace                                          *)
(* ------------------------------------------------------------------ *)

let chain3 =
  {|
resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
  region     = "us-east-1"
}
resource "aws_instance" "web" {
  ami           = "ami-123"
  instance_type = "t3.small"
  subnet_id     = aws_subnet.s.id
  region        = "us-east-1"
}
|}

let entry_tag = function
  | Journal.Run_started { engine; _ } -> "start:" ^ engine
  | Journal.Intent i ->
      Printf.sprintf "intent:%s:%s"
        (Journal.op_kind_to_string i.Journal.kind)
        (Addr.to_string i.Journal.iaddr)
  | Journal.Outcome o ->
      Printf.sprintf "outcome:%s:%s:%s"
        (Journal.op_kind_to_string o.Journal.okind)
        (Addr.to_string o.Journal.oaddr)
        (if o.Journal.ok then "ok" else "err")
  | Journal.Run_finished _ -> "finish"
  | Journal.Wave_mark { wave; wphase; _ } ->
      Printf.sprintf "wave:%d:%s" wave wphase

let journal_of t =
  match Lifecycle.journal t with
  | Some j -> Journal.entries j
  | None -> []

let test_determinism_and_golden () =
  let t1, _ = crash_and_resume ~src:chain3 ~k:2 () in
  let t2, _ = crash_and_resume ~src:chain3 ~k:2 () in
  check string_ "journals byte-identical"
    (Journal.to_string (journal_of t1))
    (Journal.to_string (journal_of t2));
  check string_ "final states byte-identical"
    (State.to_string (Lifecycle.state t1))
    (State.to_string (Lifecycle.state t2));
  (* the golden crash→resume→converge trace for a 3-deep chain killed
     at the third op: segment 1 creates vpc and subnet, dies holding
     the instance's intent; segment 2 adopts nothing new to create
     except the instance *)
  check
    Alcotest.(list string)
    "golden entry sequence"
    [
      "start:cloudless";
      "intent:create:aws_vpc.main";
      "outcome:create:aws_vpc.main:ok";
      "intent:create:aws_subnet.s";
      "outcome:create:aws_subnet.s:ok";
      "intent:create:aws_instance.web";
      (* — crash: no outcome for op 3 — *)
      "start:cloudless";
      "intent:create:aws_instance.web";
      "outcome:create:aws_instance.web:ok";
      "finish";
    ]
    (List.map entry_tag (journal_of t1))

(* ------------------------------------------------------------------ *)
(* Retry exhaustion                                                    *)
(* ------------------------------------------------------------------ *)

let test_retry_exhaustion () =
  let failure =
    Sim_failure.make
      ~transient_types:[ ("aws_subnet", "subnet API is melting") ]
      ()
  in
  let base = { Cloud.default_config with Cloud.failure } in
  let config = Cloudless_schema.Cloud_rules.config_with_checks ~base () in
  let cloud = Cloud.create ~config ~seed:42 () in
  let env = Eval.default_env in
  let instances =
    (Eval.expand ~env (Config.parse ~file:"t.tf" chain3)).Eval.instances
  in
  let plan = Plan.make ~state:State.empty instances in
  let journal = Journal.create () in
  let engine = { Executor.cloudless_config with Executor.max_retries = 2 } in
  let report =
    Executor.apply cloud ~config:engine ~state:State.empty ~plan ~journal ()
  in
  check int_ "vpc applied" 1 (List.length report.Executor.applied);
  check int_ "subnet failed" 1 (List.length report.Executor.failed);
  check int_ "instance skipped" 1 (List.length report.Executor.skipped);
  let d =
    match report.Executor.diagnostics with
    | [ d ] -> d
    | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)
  in
  check string_ "diagnostic code" "retries-exhausted" d.Diagnostic.code;
  check bool_ "diagnostic carries the addr" true
    (d.Diagnostic.addr = Some (addr "aws_subnet" "s"));
  check bool_ "stage is deploy" true (d.Diagnostic.stage = Diagnostic.Deploy);
  (* the journal's view of the run: the vpc is safely recorded, the
     subnet's attempts are all failed outcomes, nothing is unresolved *)
  let replayed = Journal.replay State.empty (Journal.entries journal) in
  check int_ "replay recovers the vpc" 1 (State.size replayed);
  check bool_ "vpc in replayed state" true
    (State.find_opt replayed (addr "aws_vpc" "main") <> None);
  check int_ "no unresolved intents" 0
    (List.length (Journal.unresolved (Journal.entries journal)))

(* ------------------------------------------------------------------ *)
(* CLI: a journal left behind                                          *)
(* ------------------------------------------------------------------ *)

let quiet_io () =
  let out = Buffer.create 256 and err = Buffer.create 256 in
  ( { Cli.out = Buffer.add_string out; err = Buffer.add_string err },
    fun () -> (Buffer.contents out, Buffer.contents err) )

let two_vpcs =
  {|
resource "aws_vpc" "a" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_vpc" "b" {
  cidr_block = "10.1.0.0/16"
  region     = "us-east-1"
}
|}

let one_vpc =
  {|
resource "aws_vpc" "a" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
|}

let temp_tf contents =
  let path = Filename.temp_file "cloudless_crash" ".tf" in
  Io_util.write_file path contents;
  path

let test_cli_apply_clears_journal () =
  let io, _ = quiet_io () in
  let state_path = temp_path ".cls" in
  let code = Cli.apply ~io ~file:(temp_tf two_vpcs) ~state_path () in
  check int_ "apply ok" 0 code;
  check bool_ "journal removed after a clean apply" false
    (Sys.file_exists (state_path ^ ".journal"))

(* A state file holding vpc a, next to the journal of a run that
   created vpc b as vpc-9999 and died after journaling the outcome,
   before its end-of-run state write. *)
let crashed_run () =
  let io, _ = quiet_io () in
  let state_path = temp_path ".cls" in
  check int_ "seed apply ok" 0
    (Cli.apply ~io ~file:(temp_tf one_vpc) ~state_path ());
  let attrs = Smap.singleton "cidr_block" (Value.Vstring "10.1.0.0/16") in
  let j = Journal.create ~path:(state_path ^ ".journal") () in
  Journal.append j
    (Journal.Run_started { engine = "cloudless"; changes = 1; time = 0. });
  Journal.append j
    (Journal.Intent
       {
         Journal.op = 1;
         iaddr = addr "aws_vpc" "b";
         kind = Journal.Op_create;
         rtype = "aws_vpc";
         region = "us-east-1";
         payload = attrs;
         prior_cloud_id = None;
         deps = [];
         log_cursor = 0;
         itime = 0.5;
       });
  Journal.append j
    (Journal.Outcome
       {
         Journal.oop = 1;
         oaddr = addr "aws_vpc" "b";
         okind = Journal.Op_create;
         ok = true;
         cloud_id = Some "vpc-9999";
         attrs = Smap.add "region" (Value.Vstring "us-east-1") attrs;
         retried = false;
         reason = None;
         otime = 2.;
       });
  Journal.close j;
  state_path

let read_state state_path =
  State.of_string ~file:state_path (Io_util.read_file state_path)

(* A plain apply merges the journal before it plans: b keeps the
   crashed run's cloud id instead of being created a second time. *)
let test_cli_resume_merges_journal () =
  let state_path = crashed_run () in
  let io, dump = quiet_io () in
  let code = Cli.apply ~io ~file:(temp_tf two_vpcs) ~state_path () in
  let out, _ = dump () in
  check int_ "apply exits 0" 0 code;
  check bool_ "reports the recovery" true
    (contains ~sub:"Resumed from journal: 1 completed operation(s)" out);
  (* the journaled create was trusted: nothing left to change *)
  check bool_ "no duplicate create" true (contains ~sub:"No changes" out);
  check bool_ "journal cleared" false
    (Sys.file_exists (state_path ^ ".journal"));
  let final = read_state state_path in
  check int_ "both vpcs tracked" 2 (State.size final);
  check string_ "b keeps the crashed run's id" "vpc-9999"
    (Option.get (State.find_opt final (addr "aws_vpc" "b"))).State.cloud_id

let test_cli_destroy_merges_journal () =
  let state_path = crashed_run () in
  let io, dump = quiet_io () in
  let code = Cli.destroy ~io ~state_path () in
  let out, _ = dump () in
  check int_ "destroy exits 0" 0 code;
  check bool_ "reports the recovery" true
    (contains ~sub:"Resumed from journal: 1 completed operation(s)" out);
  check bool_ "the journaled vpc is destroyed too" true
    (contains ~sub:"Destroyed 2 resource(s)" out);
  check bool_ "journal cleared" false
    (Sys.file_exists (state_path ^ ".journal"));
  check int_ "nothing tracked" 0 (State.size (read_state state_path))

let test_cli_corrupt_journal () =
  let state_path = crashed_run () in
  let journal = state_path ^ ".journal" in
  let state_text = Io_util.read_file state_path in
  (* one byte of line 2, the intent: its opening brace *)
  let text = Io_util.read_file journal in
  let line2 = String.index text '\n' + 1 in
  let corrupt = String.mapi (fun i c -> if i = line2 then '(' else c) text in
  Io_util.write_file journal corrupt;
  let io, dump = quiet_io () in
  let code = Cli.apply ~io ~file:(temp_tf two_vpcs) ~state_path () in
  let _, err = dump () in
  check int_ "apply exits 1" 1 code;
  check bool_ "a located corrupt-journal diagnostic" true
    (contains ~sub:("[state/corrupt-journal] " ^ journal ^ ":2:") err);
  check string_ "state untouched" state_text (Io_util.read_file state_path);
  check string_ "journal untouched" corrupt (Io_util.read_file journal)

(* A state file whose rows depend on each other in a cycle: vpc a on
   b and b on a, next to an independent vpc c.  Applying an empty
   config must fail before anything is journaled or written, under
   either engine: a FIFO walk used to delete c, stall on the cycle and
   fail as an internal error. *)
let test_cli_state_cycle () =
  let three_vpcs =
    two_vpcs
    ^ {|
resource "aws_vpc" "c" {
  cidr_block = "10.2.0.0/16"
  region     = "us-east-1"
}
|}
  in
  List.iter
    (fun (name, engine) ->
      let io, _ = quiet_io () in
      let state_path = temp_path ".cls" in
      let journal = state_path ^ ".journal" in
      check int_ (name ^ ": seed apply ok") 0
        (Cli.apply ~io ~file:(temp_tf three_vpcs) ~state_path ());
      let depend st a b =
        let row = Option.get (State.find_opt st (addr "aws_vpc" a)) in
        State.add st { row with State.deps = [ addr "aws_vpc" b ] }
      in
      let cyclic = depend (depend (read_state state_path) "a" "b") "b" "a" in
      Io_util.write_file state_path (State.to_string cyclic);
      let state_text = Io_util.read_file state_path in
      let empty = temp_tf "" in
      let io, dump = quiet_io () in
      let code = Cli.apply ~io ~engine ~file:empty ~state_path () in
      let _, err = dump () in
      check int_ (name ^ ": apply exits 1") 1 code;
      check bool_ (name ^ ": a dependency-cycle diagnostic") true
        (contains ~sub:"[plan/dependency-cycle]" err);
      check string_ (name ^ ": state untouched") state_text
        (Io_util.read_file state_path);
      check bool_ (name ^ ": no journal entry") true
        ((not (Sys.file_exists journal)) || Journal.load journal = []);
      let io, dump = quiet_io () in
      ignore (Cli.apply ~io ~engine ~file:empty ~state_path ());
      let out, _ = dump () in
      check bool_ (name ^ ": nothing to resume") false
        (contains ~sub:"Resumed from journal" out))
    [ ("baseline", Cli.Baseline); ("cloudless", Cli.Cloudless) ]

(* Two independent stacks: a subnet inside each of two VPCs. *)
let two_stacks =
  {|
resource "aws_vpc" "a" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "sa" {
  vpc_id     = aws_vpc.a.id
  cidr_block = "10.0.0.0/24"
  region     = "us-east-1"
}
resource "aws_vpc" "b" {
  cidr_block = "10.1.0.0/16"
  region     = "us-east-1"
}
resource "aws_subnet" "sb" {
  vpc_id     = aws_vpc.b.id
  cidr_block = "10.1.0.0/24"
  region     = "us-east-1"
}
|}

(* An apply runs the whole plan against one cloud, however many
   independent stacks it holds: every row gets its own cloud id, so
   the next apply restores the same cloud and finds nothing to
   change.  Applying each component against a cloud of its own would
   mint the same ids in every component, and the next apply would
   replace resources. *)
let test_cli_apply_one_cloud () =
  List.iter
    (fun (name, src) ->
      let io, _ = quiet_io () in
      let state_path = temp_path ".cls" in
      let file = temp_tf src in
      check int_ (name ^ ": apply ok") 0 (Cli.apply ~io ~file ~state_path ());
      let rows = State.resources (read_state state_path) in
      let ids =
        List.sort_uniq String.compare
          (List.map (fun (r : State.resource_state) -> r.State.cloud_id) rows)
      in
      check int_ (name ^ ": one cloud id per row") (List.length rows)
        (List.length ids);
      let io, dump = quiet_io () in
      check int_ (name ^ ": second apply ok") 0
        (Cli.apply ~io ~file ~state_path ());
      let out, _ = dump () in
      check bool_ (name ^ ": second apply changes nothing") true
        (contains ~sub:"No changes" out))
    (("two-stacks", two_stacks)
    :: List.map (fun (name, gen) -> (name, gen ())) Cli.examples)

let suites =
  [
    ( "crash",
      [
        Alcotest.test_case "io_util: write_file is atomic" `Quick
          test_write_file_atomic;
        Alcotest.test_case "journal: entry round-trip" `Quick
          test_journal_round_trip;
        Alcotest.test_case "journal: torn tail tolerated" `Quick
          test_journal_torn_tail;
        Alcotest.test_case "journal: a corrupt middle line fails" `Quick
          test_journal_corrupt_middle_line;
        Alcotest.test_case "journal: file append/load" `Quick
          test_journal_file_load;
        Alcotest.test_case "journal: replay is idempotent" `Quick
          test_replay_idempotent;
        QCheck_alcotest.to_alcotest prop_last_op_is_max_op;
        Alcotest.test_case "lifecycle: crash+resume converges at every k"
          `Quick test_crash_resume_every_k;
        Alcotest.test_case "lifecycle: Crashed error shape" `Quick
          test_crashed_error_shape;
        Alcotest.test_case "recovery: adoption accounting" `Quick
          test_adoption_accounting;
        Alcotest.test_case "group commit: crash+resume converges at every k"
          `Quick test_group_crash_resume_every_k;
        Alcotest.test_case "group commit: abandon leaves the barrier history"
          `Quick test_group_abandon_disk_fidelity;
        Alcotest.test_case "group commit: clean run = wal" `Quick
          test_group_clean_run_equals_wal;
        Alcotest.test_case "golden crash->resume->converge trace" `Quick
          test_determinism_and_golden;
        Alcotest.test_case "executor: retry exhaustion diagnostics" `Quick
          test_retry_exhaustion;
        Alcotest.test_case "cli: clean apply clears the journal" `Quick
          test_cli_apply_clears_journal;
        Alcotest.test_case "cli: --resume merges the journal" `Quick
          test_cli_resume_merges_journal;
        Alcotest.test_case "cli: destroy merges a leftover journal" `Quick
          test_cli_destroy_merges_journal;
        Alcotest.test_case "cli: a corrupt journal fails apply" `Quick
          test_cli_corrupt_journal;
        Alcotest.test_case "cli: a cycle in the state fails before any write"
          `Quick test_cli_state_cycle;
        Alcotest.test_case "cli: independent stacks share one cloud" `Quick
          test_cli_apply_one_cloud;
        Alcotest.test_case "journal: an out-of-range number fails" `Quick
          test_journal_out_of_range_number;
      ] );
  ]
