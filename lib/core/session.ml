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

(* The simulated cloud backing `apply` is reconstructed from the state
   file on every run: each tracked resource is materialized with its
   recorded cloud id's attributes, so plans and refreshes behave
   consistently across invocations. *)
let cloud_from_state ?(trace = Trace.null)
    ?(config = Cloudless_schema.Cloud_rules.config_with_checks ()) state ~seed =
  let cloud = Cloud.create ~config ~seed () in
  Cloud.set_trace cloud trace;
  (* phase 1: recreate every resource, collecting old-id -> new-id *)
  let id_map = Hashtbl.create 16 in
  let created =
    List.map
      (fun (r : State.resource_state) ->
        let cloud_id =
          Cloud.create_oob cloud ~script:"state-restore" ~rtype:r.State.rtype
            ~region:r.State.region ~attrs:r.State.attrs
        in
        Hashtbl.replace id_map r.State.cloud_id cloud_id;
        (r, cloud_id))
      (State.resources state)
  in
  (* phase 2: cross-resource references in attributes point at the old
     ids; remap them so the restored cloud is internally consistent *)
  let rec remap (v : Hcl.Value.t) : Hcl.Value.t =
    match v with
    | Hcl.Value.Vstring s -> (
        match Hashtbl.find_opt id_map s with
        | Some fresh -> Hcl.Value.Vstring fresh
        | None -> v)
    | Hcl.Value.Vlist vs -> Hcl.Value.Vlist (List.map remap vs)
    | Hcl.Value.Vmap m -> Hcl.Value.Vmap (Hcl.Value.Smap.map remap m)
    | v -> v
  in
  let remapped =
    List.fold_left
      (fun acc ((r : State.resource_state), cloud_id) ->
        let attrs = Hcl.Value.Smap.map remap r.State.attrs in
        Cloud.restore_attrs cloud ~cloud_id ~attrs;
        let attrs =
          match Cloud.lookup cloud cloud_id with
          | Some live -> live.Cloud.attrs
          | None -> attrs
        in
        State.add acc { r with State.cloud_id; attrs })
      State.empty created
  in
  (cloud, remapped)

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

let expand ?(trace = Trace.null) state cfg =
  (Hcl.Eval.expand ~env:(env_for state) ~trace cfg).Hcl.Eval.instances

let plan_against ?(trace = Trace.null) ~state file =
  let cfg = parse_config file in
  let instances = expand ~trace state cfg in
  Plan.make ~trace ~state instances
