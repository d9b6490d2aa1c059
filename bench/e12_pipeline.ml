(* E12 (front-half scalability): per-stage config→plan cost at 10k.

   E11 proved the *deploy* hot path scales; this experiment does the
   same for everything that runs before it.  For `Workload.fleet`
   configs of 100 → 10k resources it times each pipeline stage
   separately — parse, eval/expand, validate (references + types +
   cloud rules), graph build + topo + levels, plan diff + execution
   graph, and apply under the heap scheduler — and checks two things:

   - correctness: topo orders, levels, execution-graph edges and plan
     action lists are byte-identical to the seed's list-scan reference
     implementations kept in-tree (`Dag.Reference`, `Plan.Reference`),
     on sizes where the O(n^2) references are still affordable;
   - complexity: at the full sweep's top size every front-half stage
     must stay within 15x its n=1k time — a reintroduced quadratic
     scan shows up as ~100x and fails the run.

   A deep `Workload.chain` graph is checked too, so the per-round
   traversal costs are exercised by depth as well as width.  Results
   land in BENCH_pipeline.json (the second perf-trajectory artifact);
   `--quick` runs a small sweep and writes BENCH_pipeline_quick.json
   so smoke runs never clobber the trajectory. *)

open Bench_util
module Hcl = Cloudless_hcl
module Addr = Hcl.Addr
module Validate = Cloudless_validate.Validate
module Diagnostic = Cloudless_validate.Diagnostic
module Dag = Cloudless_graph.Dag
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor

type sample = {
  n : int;
  parse_s : float;
  eval_s : float;
  validate_s : float;
  graph_s : float;
  plan_s : float;
  apply_s : float;
  refs_checked : bool;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A state that mirrors [instances] exactly, as if a previous apply
   recorded them; planning against it exercises the lookup/diff/orphan
   paths instead of the all-creates fast path. *)
let populated_state instances =
  List.fold_left
    (fun st (i : Hcl.Eval.instance) ->
      State.add st
        {
          State.addr = i.Hcl.Eval.addr;
          cloud_id = "cid-" ^ Addr.to_string i.Hcl.Eval.addr;
          rtype = i.Hcl.Eval.addr.Addr.rtype;
          region = "us-east-1";
          attrs = i.Hcl.Eval.attrs;
          deps = [];
        })
    State.empty instances

let actions_of (p : Plan.t) =
  List.map
    (fun (c : Plan.change) -> (c.Plan.addr, Plan.action_symbol c.Plan.action))
    p.Plan.changes

let run_one ~n ~check_refs =
  let src = Workload.fleet ~resources:n () in
  let env = Plan.env_for State.empty in
  let cfg, parse_s = time (fun () -> Hcl.Config.parse ~file:"e12.tf" src) in
  let expansion, eval_s = time (fun () -> Hcl.Eval.expand ~env cfg) in
  let instances = expansion.Hcl.Eval.instances in
  assert (List.length instances = n);
  let diags, validate_s =
    time (fun () ->
        Validate.check_references cfg
        @ Validate.check_types instances
        @ Validate.check_cloud_rules instances)
  in
  assert (not (List.exists Diagnostic.is_error diags));
  let (graph, topo, lvls), graph_s =
    time (fun () ->
        let g = Dag.of_instances instances in
        (g, Dag.topo_sort g, Dag.levels g))
  in
  let populated = populated_state instances in
  let (plan, noop_plan, eg), plan_s =
    time (fun () ->
        let plan = Plan.make ~state:State.empty instances in
        let eg = Plan.exec_graph plan in
        let noop_plan = Plan.make ~state:populated instances in
        (plan, noop_plan, eg))
  in
  let report, apply_s =
    time (fun () ->
        let cloud = fresh_cloud ~seed:42 () in
        Executor.apply cloud ~config:Executor.cloudless_config
          ~state:State.empty ~plan ~sched:Executor.Sched_heap ())
  in
  assert (Executor.succeeded report);
  if check_refs then begin
    (* byte-identical to the seed's list-scan algorithms *)
    assert (topo = Dag.Reference.topo_sort graph);
    assert (lvls = Dag.Reference.levels graph);
    let eg_ref = Plan.Reference.execution_graph plan in
    assert (Dag.nodes eg = List.map fst eg_ref);
    List.iter
      (fun (a, deps) -> assert (Addr.Set.equal (Dag.deps_of eg a) deps))
      eg_ref;
    assert (Dag.topo_sort eg = Dag.Reference.topo_sort eg);
    assert (actions_of plan = Plan.Reference.action_symbols ~state:State.empty instances);
    assert (
      actions_of noop_plan
      = Plan.Reference.action_symbols ~state:populated instances);
    (* impact scoping via a base-granularity edit *)
    match Dag.nodes graph with
    | [] -> ()
    | first :: _ ->
        let edited = [ Addr.base first ] in
        assert (
          Addr.Set.equal
            (Dag.impact_scope graph edited)
            (Dag.Reference.impact_scope graph edited))
  end;
  {
    n;
    parse_s;
    eval_s;
    validate_s;
    graph_s;
    plan_s;
    apply_s;
    refs_checked = check_refs;
  }

(* Depth-heavy counterpart: a single n-deep chain, where the per-round
   costs of topo/levels dominate instead of the per-level width. *)
let chain_check ~n =
  let src = Workload.chain ~resources:n () in
  let instances = expand_src src in
  let g = Dag.of_instances instances in
  let (topo, lvls), t = time (fun () -> (Dag.topo_sort g, Dag.levels g)) in
  assert (List.length lvls = n);
  assert (topo = Dag.Reference.topo_sort g);
  assert (lvls = Dag.Reference.levels g);
  t

let json_file ~quick =
  if quick then "BENCH_pipeline_quick.json" else "BENCH_pipeline.json"

let json_of_sample s =
  Printf.sprintf
    "    {\"n\": %d, \"parse_s\": %.6f, \"eval_s\": %.6f, \"validate_s\": \
     %.6f, \"graph_s\": %.6f, \"plan_s\": %.6f, \"apply_s\": %.6f, \
     \"refs_checked\": %b}"
    s.n s.parse_s s.eval_s s.validate_s s.graph_s s.plan_s s.apply_s
    s.refs_checked

let write_json ~quick ~samples ~ratios ~budget ~ok =
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e12_pipeline\",\n\
    \  \"engine\": \"cloudless\",\n\
    \  \"quick\": %b,\n\
    \  \"samples\": [\n\
     %s\n\
    \  ],\n\
    \  \"summary\": {%s, \"budget_x\": %.1f, \"within_budget\": %b}\n\
     }\n"
    quick
    (String.concat ",\n" (List.map json_of_sample samples))
    (String.concat ", "
       (List.map
          (fun (stage, r) -> Printf.sprintf "\"%s_ratio\": %.2f" stage r)
          ratios))
    budget ok;
  close_out oc

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E12: config→plan pipeline cost per stage%s"
       (if quick then " (quick)" else ""));
  let sizes = if quick then [ 100; 250 ] else [ 100; 500; 1000; 5000; 10000 ] in
  (* the list-scan references are O(n^2); cap where they stay cheap *)
  let ref_cap = if quick then 250 else 2000 in
  let widths = [ 7; 8; 8; 9; 8; 8; 8; 5 ] in
  row widths
    [ "n"; "parse"; "eval"; "validate"; "graph"; "plan"; "apply"; "refs" ];
  hline widths;
  let samples =
    List.map
      (fun n ->
        let s = run_one ~n ~check_refs:(n <= ref_cap) in
        row widths
          [
            string_of_int s.n;
            Printf.sprintf "%.3fs" s.parse_s;
            Printf.sprintf "%.3fs" s.eval_s;
            Printf.sprintf "%.3fs" s.validate_s;
            Printf.sprintf "%.3fs" s.graph_s;
            Printf.sprintf "%.3fs" s.plan_s;
            Printf.sprintf "%.3fs" s.apply_s;
            (if s.refs_checked then "yes" else "-");
          ];
        s)
      sizes
  in
  let chain_n = if quick then 300 else 2000 in
  let chain_t = chain_check ~n:chain_n in
  Printf.printf
    "\n\
    \  chain(%d): topo+levels of an n-deep graph in %.3fs, byte-identical\n\
    \  to the reference traversals.\n"
    chain_n chain_t;
  (* complexity gate: top size vs n=1k (n=100 in quick mode).  Tiny
     denominators are clamped so timer jitter on sub-ms stages cannot
     fake a blowup — a real quadratic is ~100x, far above any clamp. *)
  let base_n = if quick then 100 else 1000 in
  let top_n = List.fold_left max 0 sizes in
  let base = List.find (fun s -> s.n = base_n) samples in
  let top = List.find (fun s -> s.n = top_n) samples in
  let dmin = 0.0005 in
  let ratios =
    [
      ("eval", top.eval_s /. Float.max base.eval_s dmin);
      ("validate", top.validate_s /. Float.max base.validate_s dmin);
      ("graph", top.graph_s /. Float.max base.graph_s dmin);
      ("plan", top.plan_s /. Float.max base.plan_s dmin);
    ]
  in
  let budget = 15.0 in
  let ok = quick || List.for_all (fun (_, r) -> r <= budget) ratios in
  Printf.printf
    "  stage cost ratios n=%d vs n=%d (budget %.0fx): %s -> %s\n\
    \  wrote %s\n"
    top_n base_n budget
    (String.concat ", "
       (List.map (fun (st, r) -> Printf.sprintf "%s %.1fx" st r) ratios))
    (if ok then "within budget" else "BUDGET EXCEEDED")
    (json_file ~quick);
  write_json ~quick ~samples ~ratios ~budget ~ok;
  if not ok then failwith "E12: front-half stage exceeded its scaling budget"
