(* The two CLI workloads.  A pass goes through the user's entry points
   ([Cli.validate], [Cli.plan], [Cli.apply]) and the files they read
   and write; the replay walks the same commands one public function at
   a time ([Session.*], [Plan.make], [Executor.apply], [Validate]) so
   the traced pass can time each layer. *)

module Cli = Cloudless.Cli
module Session = Cloudless.Session
module Io_util = Cloudless.Io_util
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Trace = Cloudless_obs.Trace
module Workload = Cloudless_workload.Workload

type files = { tf : string; state : string }

let files dir =
  { tf = Filename.concat dir "main.tf"; state = Filename.concat dir "state.cls" }

let reset_state f =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ f.state; Session.journal_path f.state ]

let quiet = { Cli.out = ignore; err = ignore }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let engine = Cli.engine_config Cli.Cloudless

(* [Cli.apply], keeping only its "Applied N change(s) ..." line, as a
   terminal would show the rest and keep nothing: (exit code, changes
   applied). *)
let cli_apply ~seed f =
  let summary = ref "" in
  let out s = if String.starts_with ~prefix:"\nApplied " s then summary := s in
  let code = Cli.apply ~io:{ Cli.out; err = ignore } ~seed ~file:f.tf ~state_path:f.state () in
  (code, Scanf.sscanf_opt (String.trim !summary) "Applied %d change" Fun.id)

let state_digest f = Digest.to_hex (Digest.file f.state)
let state_size f = State.size (Session.load_state f.state)

(* A final plan of the config must find nothing to do. *)
let noop_plan f = Cli.plan ~io:quiet ~file:f.tf ~state_path:f.state () = 0

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

type replayed = {
  report : Executor.report option;  (** [None]: the plan was empty *)
  recorded : State.t;
  plan : Plan.t;
}

(* [Cli.apply]'s call sequence (one domain, WAL journal), each call in
   a span of its layer. *)
let replay_apply sp ~seed f =
  let trace = Spans.lib_trace sp in
  Spans.with_span sp "apply-cmd" @@ fun () ->
  let recorded = Spans.layer sp "state.load" (fun () -> Session.load_state f.state) in
  let cloud, state =
    Spans.layer sp "sim.restore" (fun () ->
        Session.cloud_from_state ~trace recorded ~seed)
  in
  let cfg = Spans.layer sp "hcl.parse" (fun () -> Session.parse_config f.tf) in
  let instances = Spans.layer sp "hcl.eval" (fun () -> Session.expand ~trace state cfg) in
  let plan = Spans.layer sp "plan.make" (fun () -> Plan.make ~trace ~state instances) in
  if Plan.is_empty plan then begin
    Spans.layer sp "state.save" (fun () -> Session.clear_journal f.state);
    { report = None; recorded; plan }
  end
  else begin
    ignore (Spans.layer sp "plan.render" (fun () -> Plan.to_string plan) : string);
    let journal =
      Spans.layer sp "state.save" (fun () ->
          Journal.create ~path:(Session.journal_path f.state) ~mode:Journal.Wal ())
    in
    let report =
      Spans.layer sp "deploy.apply" (fun () ->
          Executor.apply cloud ~config:engine ~state ~plan ~trace ~journal ())
    in
    Spans.layer sp "state.save" (fun () ->
        Session.save_state f.state report.Executor.state;
        Journal.close journal;
        Session.clear_journal f.state);
    { report = Some report; recorded; plan }
  end

(* [Cli.plan]'s call sequence; true when the diff is non-empty. *)
let replay_plan sp f =
  let trace = Spans.lib_trace sp in
  Spans.with_span sp "plan-cmd" @@ fun () ->
  let state = Spans.layer sp "state.load" (fun () -> Session.load_state f.state) in
  let cfg = Spans.layer sp "hcl.parse" (fun () -> Session.parse_config f.tf) in
  let instances = Spans.layer sp "hcl.eval" (fun () -> Session.expand ~trace state cfg) in
  let plan = Spans.layer sp "plan.make" (fun () -> Plan.make ~trace ~state instances) in
  ignore (Spans.layer sp "plan.render" (fun () -> Plan.to_string plan) : string);
  not (Plan.is_empty plan)

(* [Cli.validate]'s call sequence; true when no error was found. *)
let replay_validate sp f =
  let trace = Spans.lib_trace sp in
  Spans.with_span sp "validate-cmd" @@ fun () ->
  let state = Spans.layer sp "state.load" (fun () -> Session.load_state f.state) in
  Spans.layer sp "validate.check" (fun () ->
      let report =
        Validate.validate_source ~env:(Session.env_for state) ~trace ~file:f.tf
          (Io_util.read_file f.tf)
      in
      Diagnostic.count_errors report.Validate.diagnostics = 0)

(* The journal's share of a replayed apply: its [deploy.apply] span
   minus the same plan applied bare on an identically restored cloud.
   Runs outside every op span. *)
let journal_s sp ~seed ~apply_span r =
  if not sp.Spans.on then 0.
  else
    match r.report with
    | None -> 0.
    | Some _ ->
        let cloud, state = Session.cloud_from_state r.recorded ~seed in
        let trace = Trace.create ignore in
        let _, bare =
          timed (fun () -> Executor.apply cloud ~config:engine ~state ~plan:r.plan ~trace ())
        in
        apply_span -. bare

(* Wall time of the most recent [deploy.apply] span. *)
let last_apply_span sp =
  match List.find_opt (fun s -> s.Spans.layer = Some "deploy.apply") sp.Spans.spans with
  | Some s -> Spans.duration s
  | None -> 0.

let report_counts (r : Executor.report) =
  ( List.length r.Executor.applied,
    List.length r.Executor.failed + List.length r.Executor.skipped )

(* ------------------------------------------------------------------ *)
(* cold-apply                                                          *)
(* ------------------------------------------------------------------ *)

(* Apply a [resources]-resource fleet into empty state: the write path
   (parse, eval, plan-all-creates, executor writes, simulator, journal). *)
let cold_apply ~dir ~seed ~resources : Pass.workload =
  let f = files dir in
  let setup _ =
    Io_util.write_file f.tf (Workload.fleet ~resources ());
    reset_state f
  in
  let run () =
    let (code, applied), wall = timed (fun () -> cli_apply ~seed f) in
    let ok = code = 0 && applied = Some resources in
    {
      Pass.wall;
      ops = Option.value applied ~default:0;
      failed = (if ok then 0 else resources);
      cycles = [ wall ];
      fingerprint = state_digest f;
      checks = [ ("apply exits 0 and applies every resource", ok) ];
      sim = None;
      counters = [];
    }
  in
  let replay sp =
    let r, wall =
      timed (fun () -> Spans.with_op sp "cold-apply" (fun () -> replay_apply sp ~seed f))
    in
    let applied, failed, sim =
      match r.report with
      | None -> (0, resources, None)
      | Some rep ->
          let applied, failed = report_counts rep in
          ( applied,
            failed,
            Some
              {
                Pass.makespan = rep.Executor.makespan;
                p50 = rep.Executor.makespan;
                p99 = rep.Executor.makespan;
                api_calls = rep.Executor.api_calls;
                sim_ops = applied;
              } )
    in
    let journal = journal_s sp ~seed ~apply_span:(last_apply_span sp) r in
    {
      Pass.wall;
      ops = applied;
      failed;
      cycles = [ wall ];
      fingerprint = state_digest f;
      checks = [ ("replayed apply applies every resource", applied = resources && failed = 0) ];
      sim;
      counters =
        [
          ("state.bytes", float_of_int (Unix.stat f.state).Unix.st_size);
          ("state.journal_s", journal);
        ];
    }
  in
  let audit () =
    [
      ("state holds every resource", state_size f = resources);
      ("final plan is a no-op", noop_plan f);
    ]
  in
  { Pass.setup; run; replay; audit }

(* ------------------------------------------------------------------ *)
(* edit-loop                                                           *)
(* ------------------------------------------------------------------ *)

let instance_types = [| "t3.small"; "t3.medium"; "t3.large"; "t3.xlarge" |]

(* [Workload.fleet]'s groups: subnet, security group, target group and
   an [aws_instance] block of [per_group] instances. *)
let per_group = 6
let groups resources = (resources - 1) / (3 + per_group)

let find_from s sub i =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then raise Not_found
    else if String.sub s i k = sub then i
    else go (i + 1)
  in
  go i

(* Rewrite the line starting with [key] after offset [from]. *)
let set_line s ~from ~key ~value =
  let i = find_from s key from in
  let j = String.index_from s i '\n' in
  String.sub s 0 i ^ key ^ value ^ String.sub s j (String.length s - j)

let set_group src g ~count ~itype =
  let from = find_from src (Printf.sprintf "resource \"aws_instance\" \"g%d\" {\n" g) 0 in
  let src = set_line src ~from ~key:"  count                  = " ~value:(string_of_int count) in
  set_line src ~from ~key:"  instance_type          = " ~value:(Printf.sprintf "%S" itype)

(* The configs of one pass's cycles, from the seed.  Every cycle sets
   one group's [instance_type] to another type and grows one group's
   [count] by one, so each apply updates a group and creates an
   instance: cycles differ in the groups they touch, not in the kind of
   work, and the fleet ends [cycles] resources larger. *)
let edited_configs ~seed ~resources ~cycles base =
  let st = Random.State.make [| seed; resources; cycles |] in
  let n = groups resources in
  let counts = Array.make n per_group and types = Array.make n 0 in
  let set src g = set_group src g ~count:counts.(g) ~itype:instance_types.(types.(g)) in
  let _, configs =
    List.fold_left
      (fun (src, acc) _ ->
        let a = Random.State.int st n and b = Random.State.int st n in
        types.(a) <- (types.(a) + 1 + Random.State.int st 3) mod Array.length instance_types;
        counts.(b) <- counts.(b) + 1;
        let src = set (set src a) b in
        (src, src :: acc))
      (base, []) (List.init cycles Fun.id)
  in
  List.rev configs

(* Deploy a [resources]-resource fleet in setup, then run [cycles]
   edit -> validate -> plan -> apply cycles: the developer loop, where
   every command reloads, diffs and re-serializes the whole state. *)
let edit_loop ~dir ~seed ~resources ~cycles : Pass.workload =
  let f = files dir in
  let base = Workload.fleet ~resources () in
  let setup _ =
    Io_util.write_file f.tf base;
    reset_state f;
    if Cli.apply ~io:quiet ~seed ~file:f.tf ~state_path:f.state () <> 0 then
      failwith "edit-loop: initial deploy failed"
  in
  (* each cycle's config, written before the cycle starts *)
  let configs = edited_configs ~seed ~resources ~cycles base in
  let run () =
    let results =
      List.map
        (fun src ->
          Io_util.write_file f.tf src;
          (* each command of the loop is a fresh process in real use, so
             every cycle starts from a compacted heap; this also keeps
             major collections from landing on some cycles and not on
             others *)
          Gc.compact ();
          timed (fun () ->
              let v = Cli.validate ~io:quiet ~file:f.tf ~state_path:f.state () in
              let p = Cli.plan ~io:quiet ~file:f.tf ~state_path:f.state () in
              let a, applied = cli_apply ~seed f in
              v = 0 && p = 2 && a = 0 && Option.value applied ~default:0 > 0))
        configs
    in
    let bad = List.length (List.filter (fun (ok, _) -> not ok) results) in
    let cycle_walls = List.map snd results in
    {
      Pass.wall = List.fold_left ( +. ) 0. cycle_walls;
      ops = cycles - bad;
      failed = bad;
      cycles = cycle_walls;
      fingerprint = state_digest f;
      checks = [ ("validate 0, plan 2, apply 0 in every cycle", bad = 0) ];
      sim = None;
      counters = [];
    }
  in
  let replay sp =
    let cycle src =
      Io_util.write_file f.tf src;
      Gc.compact ();
      let (ok, r), wall =
        timed (fun () ->
            Spans.with_op sp "cycle" (fun () ->
                let v = replay_validate sp f in
                let p = replay_plan sp f in
                let r = replay_apply sp ~seed f in
                (v && p, r)))
      in
      let journal = journal_s sp ~seed ~apply_span:(last_apply_span sp) r in
      (ok, r, wall, journal)
    in
    let results = List.map cycle configs in
    let reports = List.filter_map (fun (_, r, _, _) -> r.report) results in
    let failed = List.fold_left (fun acc r -> acc + snd (report_counts r)) 0 reports in
    let makespans = List.map (fun r -> r.Executor.makespan) reports in
    let bad =
      List.length
        (List.filter
           (fun (ok, r, _, _) ->
             (not ok)
             || match r.report with Some rep -> not (Executor.succeeded rep) | None -> true)
           results)
    in
    let cycle_walls = List.map (fun (_, _, w, _) -> w) results in
    {
      Pass.wall = List.fold_left ( +. ) 0. cycle_walls;
      ops = cycles - bad;
      failed = bad;
      cycles = cycle_walls;
      fingerprint = state_digest f;
      checks =
        [ ("replayed cycles validate, diff and apply cleanly", bad = 0 && failed = 0) ];
      sim =
        (if makespans = [] then None
         else
           Some
             {
               Pass.makespan = Stats.median makespans;
               p50 = Stats.nearest_rank 50. makespans;
               p99 = Stats.nearest_rank 99. makespans;
               api_calls =
                 List.fold_left (fun acc r -> acc + r.Executor.api_calls) 0 reports;
               sim_ops = cycles;
             });
      counters =
        [
          ("state.bytes", float_of_int (Unix.stat f.state).Unix.st_size);
          ("state.journal_s", List.fold_left (fun acc (_, _, _, j) -> acc +. j) 0. results);
        ];
    }
  in
  let audit () =
    [
      ("state holds the edited fleet", state_size f = resources + cycles);
      ("final plan is a no-op", noop_plan f);
    ]
  in
  { Pass.setup; run; replay; audit }
