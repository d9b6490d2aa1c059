(** The cloudless lifecycle facade — Figure 1(b) as an API.

    One value of type {!t} owns a simulated cloud, the deployment
    state, the version history and (optionally) a policy controller,
    and exposes the lifecycle verbs the paper's stack diagram names:

    {v
    develop -> validate -> plan -> apply
         update (incremental)    rollback
         observe (drift)         police (obs/action policies)
    v}

    Examples and benchmarks compose these; nothing here is
    experiment-specific. *)

module Hcl = Cloudless_hcl
module Value = Hcl.Value
module Addr = Hcl.Addr
module Cloud = Cloudless_sim.Cloud
module Sim_failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal
module Version_store = Cloudless_state.Version_store
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Recovery = Cloudless_deploy.Recovery
module Rollback = Cloudless_rollback.Rollback
module Drift = Cloudless_drift.Drift
module Debugger = Cloudless_debug.Debugger
module Policy = Cloudless_policy.Policy
module Controller = Cloudless_policy.Controller
module Trace = Cloudless_obs.Trace

type t = {
  cloud : Cloud.t;
  trace : Trace.t;
  engine : Executor.config;
  default_region : string;
  versions : Version_store.t;
  drift_tailer : Drift.Log_tailer.t;
  controller : Controller.t option;
  mutable state : State.t;
  mutable config : Hcl.Config.t option;
  mutable config_src : string;
  mutable module_lib : (string * Hcl.Config.t) list;
  mutable journal : Journal.t option;
      (** write-ahead journal shared by apply and resume *)
  mutable crash : Sim_failure.crash_policy;  (** injected process death *)
}

(** The unified error type every lifecycle verb returns.  Each case
    renders to located diagnostics via {!error_diagnostics}; no verb
    lets a raw exception of the engine's own escape (see
    {!Cloudless_error.protect}). *)
type error =
  | Invalid_config of Diagnostic.t list
  | Policy_denied of string
  | Deploy_failed of Executor.report
  | Crashed of int
      (** injected engine death ({!Sim_failure.Engine_crashed}): the
          payload is the number of cloud writes initiated before the
          process died; the journal survives — call {!resume} *)
  | No_config
  | Fault of Diagnostic.t
      (** any other {!Cloudless_error.Error} a verb raised: blocked
          plans, dependency cycles, evaluation errors at plan time,
          corrupt state, policy errors, internal invariant
          violations *)

(** Every error as located diagnostics — the one rendering path the
    CLI and the examples share. *)
let error_diagnostics = function
  | Invalid_config ds -> ds
  | Policy_denied msg ->
      [ Diagnostic.make ~stage:Diagnostic.Policy ~code:"policy-denied" msg ]
  | Deploy_failed r ->
      List.map
        (fun (f : Executor.failure) ->
          Diagnostic.make ~stage:Diagnostic.Deploy ~code:"deploy-failed"
            ~addr:f.Executor.faddr f.Executor.reason)
        r.Executor.failed
  | Crashed n ->
      [
        Diagnostic.make ~stage:Diagnostic.Deploy ~code:"engine-crashed"
          (Printf.sprintf
             "engine process died after %d cloud operation(s); the journal \
              is intact — resume to recover"
             n);
      ]
  | No_config ->
      [
        Diagnostic.make ~stage:Diagnostic.Internal ~code:"no-config"
          "no configuration loaded (call develop first)";
      ]
  | Fault d -> [ d ]

let error_to_string e =
  match e with
  | Invalid_config _ ->
      Printf.sprintf "validation failed:\n%s"
        (String.concat "\n" (List.map Diagnostic.to_string (error_diagnostics e)))
  | Deploy_failed _ ->
      Printf.sprintf "deployment failed: %s"
        (String.concat "; " (List.map Diagnostic.to_string (error_diagnostics e)))
  | Crashed n ->
      Printf.sprintf "engine crashed after %d cloud operation(s)" n
  | Policy_denied msg -> "policy denied the plan: " ^ msg
  | No_config -> "no configuration loaded (call develop first)"
  | Fault d -> Diagnostic.to_string d

let create ?(seed = 42) ?(engine = Executor.cloudless_config)
    ?(default_region = "us-east-1") ?policies
    ?(cloud_config = Cloudless_schema.Cloud_rules.config_with_checks ())
    ?(trace = Trace.null) () =
  let cloud = Cloud.create ~config:cloud_config ~seed () in
  (* API-call/throttle counters land on whatever lifecycle span is
     active when the simulator processes a submission *)
  Cloud.set_trace cloud trace;
  {
    cloud;
    trace;
    engine;
    default_region;
    versions = Version_store.create ();
    drift_tailer = Drift.Log_tailer.create ();
    controller =
      Option.map (fun src -> Controller.of_source ~file:"<policies>" src) policies;
    state = State.empty;
    config = None;
    config_src = "";
    module_lib = [];
    journal = None;
    crash = Sim_failure.No_crash;
  }

let cloud t = t.cloud
let trace t = t.trace
let state t = t.state
let versions t = t.versions
let config_source t = t.config_src
let journal t = t.journal

(** Turn on in-memory write-ahead journaling for subsequent applies
    (crash-injection experiments).  [mode] (default {!Journal.Wal})
    selects per-intent flushing or group commit — see {!Journal.mode}
    for the crash-window contract. *)
let enable_journal ?mode t = t.journal <- Some (Journal.create ?mode ())

(** Inject engine process death into the next apply (see
    {!Sim_failure.crash_policy}). *)
let set_crash t policy = t.crash <- policy

(* ------------------------------------------------------------------ *)
(* Evaluation environment wiring                                       *)
(* ------------------------------------------------------------------ *)

(* The provider env every plan uses, in this lifecycle's region and
   against its state, plus its registered modules. *)
let env t : Hcl.Eval.env =
  {
    (Plan.env_for ~region:t.default_region t.state) with
    module_registry = (fun source -> List.assoc_opt source t.module_lib);
  }

(** Register module sources (used by imports/refactors/nested module
    examples). *)
let register_modules t lib = t.module_lib <- lib @ t.module_lib

(* ------------------------------------------------------------------ *)
(* The engine boundary                                                 *)
(* ------------------------------------------------------------------ *)

(* [f]'s result, with any typed error as a [Fault] carrying its
   diagnostic. *)
let protected (f : unit -> ('a, error) result) : ('a, error) result =
  match Cloudless_error.protect f with Ok r -> r | Error d -> Error (Fault d)

(* Each verb runs inside a traced span with its body protected. *)
let guarded t name f = Trace.with_span t.trace name @@ fun () -> protected f

(* ------------------------------------------------------------------ *)
(* Develop & validate                                                  *)
(* ------------------------------------------------------------------ *)

(** Load (or replace) the configuration source, running the full §3.2
    validation pipeline.  On success the configuration becomes current. *)
let develop t src : (Validate.report, error) result =
  guarded t "develop" @@ fun () ->
  let report =
    Validate.validate_source ~trace:t.trace ~env:(env t) ~file:"main.tf" src
  in
  if Validate.ok report then begin
    t.config <- Some (Hcl.Config.parse ~file:"main.tf" src);
    t.config_src <- src;
    Ok report
  end
  else Error (Invalid_config (Diagnostic.errors report.Validate.diagnostics))

(** Validate without loading. *)
let validate t src : Validate.report =
  Validate.validate_source ~trace:t.trace ~env:(env t) ~file:"main.tf" src

(* ------------------------------------------------------------------ *)
(* Plan & apply                                                        *)
(* ------------------------------------------------------------------ *)

let expand t : (Hcl.Eval.expansion_result, error) result =
  match t.config with
  | None -> Error No_config
  | Some cfg ->
      protected @@ fun () ->
      Ok (Hcl.Eval.expand ~env:(env t) ~trace:t.trace cfg)

let plan t : (Plan.t, error) result =
  match expand t with
  | Error e -> Error e
  | Ok expansion ->
      protected @@ fun () ->
      Ok
        (Plan.make ~default_region:t.default_region ~trace:t.trace
           ~state:t.state expansion.Hcl.Eval.instances)

(* Policy admission on a plan (On_plan phase). *)
let admit t plan_ : (unit, error) result =
  match t.controller with
  | None -> Ok ()
  | Some c -> (
      let obs = Controller.standard_obs ~state:t.state ~plan:plan_ () in
      let result = Controller.tick c ~phase:Policy.On_plan ~obs () in
      match result.Controller.denied with
      | Some msg -> Error (Policy_denied msg)
      | None -> Ok ())

(** Plan + admit + deploy + checkpoint.  The engine's own refresh mode
    applies: the cloudless preset re-reads only the plan's §3.3 impact
    scope. *)
let apply ?description t : (Executor.report, error) result =
  guarded t "apply" @@ fun () ->
  match plan t with
  | Error e -> Error e
  | Ok p -> (
      match admit t p with
      | Error e -> Error e
      | Ok () -> (
          match
            Executor.apply t.cloud ~config:t.engine ~state:t.state ~plan:p
              ~trace:t.trace ?journal:t.journal ~crash:t.crash ()
          with
          | exception Sim_failure.Engine_crashed n ->
              (* process death: in-memory results are gone (t.state is
                 untouched); the journal and the cloud survive *)
              Error (Crashed n)
          | report ->
              t.state <- report.Executor.state;
              (* recompute outputs now that attributes are known *)
              (match expand t with
              | Ok e2 -> t.state <- State.set_outputs t.state e2.Hcl.Eval.outputs
              | Error _ -> ());
              if Executor.succeeded report then begin
                ignore
                  (Version_store.checkpoint t.versions ~time:(Cloud.now t.cloud)
                     ~description:
                       (Option.value ~default:"apply" description)
                     ~config_src:t.config_src ~state:t.state);
                Ok report
              end
              else Error (Deploy_failed report)))

(** Develop + apply in one step. *)
let deploy t src : (Executor.report, error) result =
  match develop t src with
  | Error e -> Error e
  | Ok _ -> apply ~description:"initial deploy" t

(** Recover from a crashed apply and converge.  The journal is
    replayed over the current state, unresolved intents are reconciled
    against the cloud's activity log (adopt / refresh / confirm-delete,
    see {!Recovery.resume_state}), and the configuration is re-applied
    so the interrupted remainder runs.  The same journal keeps appending,
    so a resume can itself crash and be resumed.  Returns the final
    report plus the recovery accounting. *)
let resume t : (Executor.report * Recovery.resume_report, error) result =
  guarded t "resume" @@ fun () ->
  let entries =
    match t.journal with Some j -> Journal.entries j | None -> []
  in
  (* the restarted process does not inherit the injected death *)
  t.crash <- Sim_failure.No_crash;
  let recovered, rr =
    Recovery.resume_state t.cloud ~engine:t.engine.Executor.name ~state:t.state
      ~entries
  in
  t.state <- recovered;
  Trace.count t.trace "resume_adopted" (List.length rr.Recovery.adopted);
  Trace.count t.trace "resume_replanned" (List.length rr.Recovery.replanned);
  match apply ~description:"resume" t with
  | Ok report -> Ok (report, rr)
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Update (incremental)                                                *)
(* ------------------------------------------------------------------ *)

(** Incremental update: validate the new source, then apply it.  The
    engine refreshes only the plan's impact scope (§3.3's
    "accelerating deployment updates"), decided in {!Executor.apply}. *)
let update t src : (Executor.report, error) result =
  match develop t src with
  | Error e -> Error e
  | Ok _ -> apply ~description:"incremental update" t

(** Destroy everything. *)
let destroy t : (Executor.report, error) result =
  guarded t "destroy" @@ fun () ->
  let p =
    Plan.make ~default_region:t.default_region ~trace:t.trace ~state:t.state []
  in
  let report =
    Executor.apply t.cloud ~config:t.engine ~state:t.state ~plan:p
      ~trace:t.trace ()
  in
  t.state <- report.Executor.state;
  if Executor.succeeded report then begin
    ignore
      (Version_store.checkpoint t.versions ~time:(Cloud.now t.cloud)
         ~description:"destroy" ~config_src:"" ~state:t.state);
    Ok report
  end
  else Error (Deploy_failed report)

(* ------------------------------------------------------------------ *)
(* Rollback                                                            *)
(* ------------------------------------------------------------------ *)

let live_attrs t addr =
  match State.find_opt t.state addr with
  | Some r ->
      Option.map
        (fun (res : Cloud.resource) -> (Cloud.attrs res))
        (Cloud.lookup t.cloud r.State.cloud_id)
  | None -> None

(** Roll back to a recorded version using the reversibility-aware
    planner (§3.4). *)
let rollback_to ?(strategy = Rollback.Reversibility_aware) t ~version_id :
    (Executor.report, error) result =
  guarded t "rollback" @@ fun () ->
  match Version_store.find t.versions version_id with
  | None ->
      Error
        (Fault
           (Diagnostic.make ~stage:Diagnostic.State_io ~code:"unknown-version"
              (Printf.sprintf "unknown version %d" version_id)))
  | Some v ->
      let rb =
        Rollback.plan_rollback ~strategy ~target:v.Version_store.state
          ~current:t.state
          ~live:(fun addr -> live_attrs t addr)
          ()
      in
      let report =
        Executor.apply t.cloud ~config:t.engine ~state:t.state
          ~plan:rb.Rollback.plan ~trace:t.trace ()
      in
      t.state <- report.Executor.state;
      t.config_src <- v.Version_store.config_src;
      (t.config <-
         (if v.Version_store.config_src = "" then None
          else Some (Hcl.Config.parse ~file:"main.tf" v.Version_store.config_src)));
      ignore
        (Version_store.checkpoint t.versions ~time:(Cloud.now t.cloud)
           ~description:(Printf.sprintf "rollback to v%d" version_id)
           ~config_src:t.config_src ~state:t.state);
      if Executor.succeeded report then Ok report else Error (Deploy_failed report)

(* ------------------------------------------------------------------ *)
(* Observe: drift                                                      *)
(* ------------------------------------------------------------------ *)

(** Poll the activity log for drift (cheap, log-based, §3.5). *)
let check_drift t : Drift.event list =
  Trace.with_span t.trace "observe" @@ fun () ->
  let events = Drift.Log_tailer.poll t.drift_tailer t.cloud ~state:t.state in
  Trace.count t.trace "drift_events" (List.length events);
  events

(** Reconcile drift events with the default policy. *)
let reconcile_drift t (events : Drift.event list) : unit =
  List.iter
    (fun e ->
      t.state <- Drift.reconcile t.cloud ~state:t.state e (Drift.default_policy e))
    events

(* ------------------------------------------------------------------ *)
(* Diagnose                                                            *)
(* ------------------------------------------------------------------ *)

(** Translate a deployment failure into an IaC-level diagnosis
    (§3.5). *)
let diagnose t (failure : Executor.failure) : Debugger.diagnosis option =
  match (t.config, expand t) with
  | Some cfg, Ok expansion ->
      Some
        (Debugger.diagnose ~cfg ~instances:expansion.Hcl.Eval.instances
           ~addr:failure.Executor.faddr ~error:failure.Executor.reason)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Police: telemetry-driven policies                                   *)
(* ------------------------------------------------------------------ *)

type police_result = {
  decisions : Policy.decision list;
  reapplied : Executor.report option;
}

(** Run telemetry-phase policies with scenario metrics in [extra]; if a
    policy's action rewrote the configuration, redeploy it. *)
let police t ~(extra : (string * Value.t) list) :
    (police_result, error) result =
  guarded t "police" @@ fun () ->
  match (t.controller, t.config) with
  | None, _ -> Ok { decisions = []; reapplied = None }
  | Some _, None -> Error No_config
  | Some c, Some cfg -> (
      let obs = Controller.standard_obs ~state:t.state ~extra () in
      match
        Controller.tick c ~phase:Policy.On_telemetry ~obs ~config:cfg ()
      with
      | result -> (
          match result.Controller.new_config with
          | None ->
              Ok { decisions = result.Controller.decisions; reapplied = None }
          | Some cfg' -> (
              t.config <- Some cfg';
              t.config_src <- Hcl.Config.to_string cfg';
              match apply ~description:"policy action" t with
              | Ok report ->
                  Ok
                    {
                      decisions = result.Controller.decisions;
                      reapplied = Some report;
                    }
              | Error e -> Error e)))

(** Observe + police in one step: poll the activity log for drift, run
    drift-phase policies over the findings (with [drift_events] /
    [drift_deletions] observations), reconcile what the default policy
    accepts, and return the events plus any policy decisions.  This is
    the §3.5→§3.6 coupling the paper sketches: "a policy that governs
    failure handling could take resource drifts as observations". *)
let observe_and_police t : Drift.event list * Policy.decision list =
  let events = check_drift t in
  let decisions =
    match t.controller with
    | None -> []
    | Some c ->
        let deletions =
          List.length
            (List.filter
               (fun (e : Drift.event) -> e.Drift.kind = Drift.Deleted_oob)
               events)
        in
        let obs =
          Controller.standard_obs ~state:t.state
            ~extra:
              [
                ("drift_events", Value.Vint (List.length events));
                ("drift_deletions", Value.Vint deletions);
              ]
            ()
        in
        (Controller.tick c ~phase:Policy.On_drift ~obs ()).Controller.decisions
  in
  reconcile_drift t events;
  (events, decisions)
