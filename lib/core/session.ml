(** The state-file-backed run-context behind the CLI verbs.

    A [Session] turns a state file on disk into a live simulated cloud
    plus tracked state, parses .tf sources (file or directory), and
    runs the plan/apply/destroy paths against them.  Every failure
    raises a located {!Cloudless_error.Error}; callers wrap themselves
    in {!Cloudless_error.protect} to get it as a diagnostic. *)

module Hcl = Cloudless_hcl
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Cloud = Cloudless_sim.Cloud
module Diagnostic = Cloudless_error.Diagnostic
module Trace = Cloudless_obs.Trace

let load_state path =
  if Sys.file_exists path then State.of_string ~file:path (Io_util.read_file path)
  else State.empty

let save_state path state = Io_util.write_file path (State.to_string state)

(* The write-ahead journal lives next to the state file.  A normal
   apply removes it after the final state write, so its presence on
   disk is itself the crash signal: the next apply or destroy merges
   it into the state first. *)
let journal_path state_path = state_path ^ ".journal"

let load_journal state_path =
  let path = journal_path state_path in
  if Sys.file_exists path then Some (Journal.load path) else None

let clear_journal state_path =
  let path = journal_path state_path in
  if Sys.file_exists path then Sys.remove path

(* A state whose rows share a cloud id records one resource twice; no
   restore can give both rows that id. *)
let shared_id rows (r : State.resource_state) =
  let first =
    List.find
      (fun (o : State.resource_state) ->
        String.equal o.State.cloud_id r.State.cloud_id)
      rows
  in
  Cloudless_error.fail ~stage:Diagnostic.State_io ~code:"corrupt-state"
    ~addr:r.State.addr "state: %s and %s both record cloud id %s"
    (Hcl.Addr.to_string first.State.addr)
    (Hcl.Addr.to_string r.State.addr)
    r.State.cloud_id

(** The simulated cloud backing [apply], [destroy] and [import],
    rebuilt from the recorded state on every run: each row is restored
    under its recorded cloud id with its recorded attributes
    ({!Cloud.restore}), so ids stay stable across runs, references
    between rows stay valid as they are, and ids minted later continue
    past every restored one.  No row's attributes are read: the cloud
    reads a resource's on its first read, and checks the recorded
    [id], [arn] and [region] on the row's text.  Returns the cloud and
    the recorded state itself (the same row records, serial and
    outputs), except that a row whose [id], [arn] or [region] attribute
    differs from what the cloud computes is rebuilt with the cloud's
    attributes.  A state whose rows share a cloud id is refused with a
    [state/corrupt-state] diagnostic naming both addresses. *)
let cloud_from_state ?(trace = Trace.null)
    ?(config = Cloudless_schema.Cloud_rules.config_with_checks ()) state ~seed =
  let cloud = Cloud.create ~config ~seed () in
  Cloud.set_trace cloud trace;
  let rows = State.resources state in
  let rebuilt =
    List.fold_left
      (fun acc (r : State.resource_state) ->
        if Option.is_some (Cloud.lookup cloud r.State.cloud_id) then
          shared_id rows r;
        match
          Cloud.restore cloud ~cloud_id:r.State.cloud_id ~rtype:r.State.rtype
            ~region:r.State.region r.State.recorded
        with
        | None -> acc
        | Some attrs -> State.with_attrs r attrs :: acc)
      [] rows
  in
  let restored =
    match rebuilt with
    | [] -> state
    | rows ->
        State.with_serial
          (List.fold_left State.add state rows)
          (State.serial state)
  in
  (cloud, restored)

let env_for = Plan.env_for

(* A FILE argument may be a single .tf file or a directory, in which
   case every *.tf file in it is parsed and merged (Terraform's
   directory-as-module model).  Lex/parse/structure failures propagate
   as located syntax errors. *)
let parse_config path =
  let parse_one file = Hcl.Config.parse ~file (Io_util.read_file file) in
  if Sys.is_directory path then begin
    let files =
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".tf")
      |> List.sort String.compare
      |> List.map (Filename.concat path)
    in
    if files = [] then
      Cloudless_error.fail ~stage:Diagnostic.Syntax ~code:"no-config-files"
        "%s: no .tf files found" path;
    Hcl.Config.merge (List.map parse_one files)
  end
  else parse_one path

(** The instances of [cfg] to plan against [state] ({!Plan.env_for}):
    an instance whose row, unread on the state's text, records its
    configuration is left unmerged ({!Hcl.Eval.instance.verified}), so
    {!Plan.make} finds it a no-op without reading the row. *)
let expand ?(trace = Trace.null) state cfg =
  (Hcl.Eval.expand ~env:(env_for state) ~trace cfg).Hcl.Eval.instances

let plan_against ?(trace = Trace.null) ~state file =
  let cfg = parse_config file in
  let instances = expand ~trace state cfg in
  Plan.make ~trace ~state instances
