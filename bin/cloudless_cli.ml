(* The cloudless command-line tool: cmdliner wiring only.

   Every handler lives in [Cloudless.Cli] (lib/core/cli.ml) and
   returns an exit code — 0 success, 1 user/config error, 2 deploy
   failure (or, for `plan`, a non-empty diff).  Keeping the bodies in
   the library means tests exercise exactly what this binary runs:

     cloudless fmt main.tf
     cloudless validate main.tf [--level cloud]
     cloudless graph main.tf > deps.dot
     cloudless plan main.tf --state state.cls [--trace t.jsonl]
     cloudless apply main.tf --state state.cls [--engine cloudless] [--trace t.jsonl]
     cloudless destroy --state state.cls
     cloudless policy-check main.tf --policies policies.hcl
     cloudless example web-tier     # emit a generated workload
     cloudless serve scenario.txt [--engine baseline] [--metrics m.json]
     cloudless rollout change.hcl --scenario scenario.txt  *)

open Cmdliner
module Cli = Cloudless.Cli
module Validate = Cloudless_validate.Validate

(* ------------------------------------------------------------------ *)
(* Common args                                                         *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"IaC source file or directory of .tf files")

let state_arg =
  Arg.(
    value
    & opt string "cloudless.state"
    & info [ "state" ] ~docv:"PATH" ~doc:"State file (created on first apply)")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:"Write per-stage trace spans (JSONL) to $(docv)")

let engine_arg =
  let engines =
    [ ("baseline", Cli.Baseline); ("cloudless", Cli.Cloudless) ]
  in
  Arg.(
    value
    & opt (enum engines) Cli.Cloudless
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Deployment engine: $(b,baseline) (Terraform-like) or $(b,cloudless)")

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let fmt_cmd =
  let run file in_place = Cli.fmt ~file ~in_place () in
  let in_place =
    Arg.(value & flag & info [ "i"; "in-place" ] ~doc:"Rewrite the file")
  in
  Cmd.v (Cmd.info "fmt" ~doc:"Canonically format an IaC file")
    Term.(const run $ file_arg $ in_place)

let level_arg =
  let levels =
    [
      ("syntax", Validate.L_syntax);
      ("refs", Validate.L_references);
      ("types", Validate.L_types);
      ("cloud", Validate.L_cloud);
    ]
  in
  Arg.(
    value
    & opt (enum levels) Validate.L_cloud
    & info [ "level" ] ~docv:"LEVEL"
        ~doc:"Validation depth: $(b,syntax), $(b,refs), $(b,types) or $(b,cloud)")

let validate_cmd =
  let run file level state_path = Cli.validate ~level ~file ~state_path () in
  Cmd.v
    (Cmd.info "validate" ~doc:"Run the staged validation pipeline (§3.2)")
    Term.(const run $ file_arg $ level_arg $ state_arg)

let graph_cmd =
  let run file = Cli.graph ~file () in
  Cmd.v
    (Cmd.info "graph" ~doc:"Emit the resource dependency graph as Graphviz dot")
    Term.(const run $ file_arg)

let plan_cmd =
  let run file state_path trace_path =
    Cli.plan ?trace_path ~file ~state_path ()
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show what apply would change (exit 2 when non-empty)")
    Term.(const run $ file_arg $ state_arg $ trace_arg)

let apply_cmd =
  let run file state_path seed engine trace_path journal_mode =
    Cli.apply ?trace_path ~seed ~engine ~journal_mode ~file ~state_path ()
  in
  let journal_mode_arg =
    let modes =
      [
        ("wal", Cloudless_state.Journal.Wal);
        ("group", Cloudless_state.Journal.Group 64);
      ]
    in
    Arg.(
      value
      & opt (enum modes) Cloudless_state.Journal.Wal
      & info [ "journal-mode" ] ~docv:"MODE"
          ~doc:
            "Deployment-journal durability: $(b,wal) flushes every intent \
             before its cloud call is issued; $(b,group) batches up to 64 \
             intents behind one flush barrier, deferring their cloud calls \
             until the barrier — an order of magnitude fewer syscalls for a \
             wider crash window (lost batched intents are ops that were \
             never issued, so resume simply replans them)")
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:
         "Apply the configuration against the simulated cloud, after \
          merging the deployment journal a crashed apply left next to the \
          state file")
    Term.(
      const run $ file_arg $ state_arg $ seed_arg $ engine_arg $ trace_arg
      $ journal_mode_arg)

let destroy_cmd =
  let run state_path seed trace_path =
    Cli.destroy ?trace_path ~seed ~state_path ()
  in
  Cmd.v
    (Cmd.info "destroy" ~doc:"Destroy everything tracked in the state file")
    Term.(const run $ state_arg $ seed_arg $ trace_arg)

let policy_check_cmd =
  let policies_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "policies" ] ~docv:"FILE" ~doc:"Policy file (obs/action HCL)")
  in
  let run file policies_path state_path =
    Cli.policy_check ~file ~policies_path ~state_path ()
  in
  Cmd.v
    (Cmd.info "policy-check" ~doc:"Run plan-phase policies against a plan (§3.6)")
    Term.(const run $ file_arg $ policies_arg $ state_arg)

let import_cmd =
  let optimize_arg =
    Arg.(
      value & flag
      & info [ "no-optimize" ]
          ~doc:"Skip the refactoring optimizer (emit the naive one-block-per-resource dump)")
  in
  let run state_path no_optimize = Cli.import ~no_optimize ~state_path () in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Port the tracked deployment back to IaC source (§3.1): naive dump           or optimizer output")
    Term.(const run $ state_arg $ optimize_arg)

let example_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (n, _) -> (n, n)) Cli.examples))) None
      & info [] ~docv:"NAME"
          ~doc:
            "One of: web-tier, microservices, data-pipeline, multi-region, \
             multi-cloud, figure2")
  in
  let run name = Cli.example ~name () in
  Cmd.v
    (Cmd.info "example" ~doc:"Emit a generated example configuration")
    Term.(const run $ name_arg)

let serve_cmd =
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenario file: $(b,key = value) lines that set the whole run \
             (tenants, resources, request and drift schedule, duration, \
             shards, admission bound, chaos episodes, breakers, waves)")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Write the metrics snapshot (JSON) to $(docv) instead of stdout")
  in
  let run scenario_path seed engine trace_path metrics_path =
    Cli.serve ?trace_path ~seed ~engine ?metrics_path ~scenario_path ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant reconciliation control plane against a \
          scenario for its duration of simulated time")
    Term.(
      const run $ scenario_arg $ seed_arg $ engine_arg $ trace_arg
      $ metrics_arg)

let rollout_cmd =
  let change_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CHANGE"
          ~doc:"Bulk-change file (HCL $(b,change) blocks: actions + gates)")
  in
  let scenario_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "Scenario file providing the fleet shape (tenants, fleet size, \
             shard count); its request/drift schedule is not installed")
  in
  let check_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-period" ] ~docv:"SECONDS"
          ~doc:"Wave quiescence-poll cadence in simulated seconds (default 30)")
  in
  let run file scenario_path seed trace_path check_period =
    Cli.rollout ?trace_path ~seed ?check_period ~file ~scenario_path ()
  in
  Cmd.v
    (Cmd.info "rollout"
       ~doc:
         "Carry a bulk change across a tenant fleet in canary-first, \
          geometrically growing waves, gating every wave boundary on policy \
          and health and auto-rolling-back a failed wave (exit 2 when a gate \
          halts the rollout)")
    Term.(
      const run $ change_arg $ scenario_arg $ seed_arg $ trace_arg $ check_arg)

let main_cmd =
  let doc = "a principled IaC framework (HotNets '23 'Cloudless Computing')" in
  Cmd.group
    (Cmd.info "cloudless" ~version:"1.0.0" ~doc)
    [
      fmt_cmd;
      validate_cmd;
      graph_cmd;
      plan_cmd;
      apply_cmd;
      destroy_cmd;
      import_cmd;
      policy_check_cmd;
      example_cmd;
      serve_cmd;
      rollout_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
