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
     must stay within 15x its n=1k cost, in time and in minor words —
     a reintroduced quadratic scan shows up as ~100x and fails the
     run.  The n=1k cost is measured over top/1k separately built
     inputs whose results stay live, so both sides allocate the same
     words into a heap of the same size: the ratio measures the
     algorithm, not where the minor heap overflows.

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
          recorded = State.Recorded.of_map i.Hcl.Eval.attrs;
          deps = [];
        })
    State.empty instances

(* The four gated front-half stages, shared by the sweep's timings and
   the complexity gate. *)
let eval_stage cfg = Hcl.Eval.expand ~env:(Plan.env_for State.empty) cfg

let validate_stage cfg instances =
  Validate.check_references cfg
  @ Validate.check_types instances
  @ Validate.check_cloud_rules instances

let graph_stage instances =
  let g = Dag.of_instances instances in
  (g, Dag.topo_sort g, Dag.levels g)

let plan_stage ~populated instances =
  let plan = Plan.make ~state:State.empty instances in
  let eg = Plan.exec_graph plan in
  (plan, Plan.make ~state:populated instances, eg)

let actions_of (p : Plan.t) =
  List.map
    (fun (c : Plan.change) -> (c.Plan.addr, Plan.action_symbol c.Plan.action))
    p.Plan.changes

let run_one ~n ~check_refs =
  let src = Workload.fleet ~resources:n () in
  let cfg, parse_s = time (fun () -> Hcl.Config.parse ~file:"e12.tf" src) in
  let expansion, eval_s = time (fun () -> eval_stage cfg) in
  let instances = expansion.Hcl.Eval.instances in
  assert (List.length instances = n);
  let diags, validate_s = time (fun () -> validate_stage cfg instances) in
  assert (not (List.exists Diagnostic.is_error diags));
  let (graph, topo, lvls), graph_s = time (fun () -> graph_stage instances) in
  let populated = populated_state instances in
  let (plan, noop_plan, eg), plan_s =
    time (fun () -> plan_stage ~populated instances)
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

(* The complexity gate.  A lone 1k stage fits its whole allocation in
   the minor heap and leaves its result there, while the 10k stage
   overflows it a dozen times and promotes what survives, so their time
   ratio read 9x to 24x for the same linear code on a 2-core VM.  Here
   the base side runs the stage over [top / base] separately built
   inputs of the base size, keeping every result live, and the gate
   divides its time and minor words by that count: both sides do the
   top size's work in the same GC regime, and the algorithm's order
   separates them, ~10x when linear and ~100x when quadratic.  Each
   trial builds fresh inputs, so the heap layout differs from trial to
   trial, and the gate keeps each stage's best of [gate_trials]. *)
type input = {
  cfg : Hcl.Config.t;
  instances : Hcl.Eval.instance list;
  populated : State.t;
}

let input_of_size n =
  let cfg = Hcl.Config.parse ~file:"e12.tf" (Workload.fleet ~resources:n ()) in
  let instances = (eval_stage cfg).Hcl.Eval.instances in
  { cfg; instances; populated = populated_state instances }

type stage = Stage : string * (input -> 'a) -> stage

let gated_stages =
  [
    Stage ("eval", fun i -> eval_stage i.cfg);
    Stage ("validate", fun i -> validate_stage i.cfg i.instances);
    Stage ("graph", fun i -> graph_stage i.instances);
    Stage ("plan", fun i -> plan_stage ~populated:i.populated i.instances);
  ]

let gate_trials = 3

(* Seconds and minor words of [f] over every input, on a collected
   heap, with the results kept live until both are read. *)
let measure f inputs =
  Gc.full_major ();
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let results = List.map f inputs in
  let secs = Unix.gettimeofday () -. t0 and words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity results);
  (secs, words)

(* Per gated stage: (name, time ratio, minor-words ratio) of the top
   size over the base size. *)
let gate_ratios ~base_n ~top_n =
  let copies = top_n / base_n in
  let per_base v = v /. float_of_int copies in
  let trial () =
    let base = List.init copies (fun _ -> input_of_size base_n)
    and top = [ input_of_size top_n ] in
    List.map
      (fun (Stage (_, f)) ->
        let bs, bw = measure f base and ts, tw = measure f top in
        (ts /. per_base bs, tw /. per_base bw))
      gated_stages
  in
  let trials = List.init gate_trials (fun _ -> trial ()) in
  List.mapi
    (fun k (Stage (name, _)) ->
      let best f =
        List.fold_left (fun a t -> Float.min a (f (List.nth t k))) infinity trials
      in
      (name, best fst, best snd))
    gated_stages

let json_file ~quick =
  if quick then "BENCH_pipeline_quick.json" else "BENCH_pipeline.json"

let json_of_sample s =
  Printf.sprintf
    "    {\"n\": %d, \"parse_s\": %.6f, \"eval_s\": %.6f, \"validate_s\": \
     %.6f, \"graph_s\": %.6f, \"plan_s\": %.6f, \"apply_s\": %.6f, \
     \"refs_checked\": %b}"
    s.n s.parse_s s.eval_s s.validate_s s.graph_s s.plan_s s.apply_s
    s.refs_checked

let write_json ~quick ~samples ~gate ~budget ~ok =
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
          (fun (stage, r, w) ->
            Printf.sprintf "\"%s_ratio\": %.2f, \"%s_words_ratio\": %.2f" stage
              r stage w)
          gate))
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
  (* complexity gate: top size vs n=1k (n=100 in quick mode) *)
  let base_n = if quick then 100 else 1000 in
  let top_n = List.fold_left max 0 sizes in
  let gate = gate_ratios ~base_n ~top_n in
  let budget = 15.0 in
  let ok =
    quick || List.for_all (fun (_, r, w) -> r <= budget && w <= budget) gate
  in
  Printf.printf
    "  stage cost ratios n=%d vs n=%d, time / minor words (budget %.0fx): \
     %s -> %s\n\
    \  wrote %s\n"
    top_n base_n budget
    (String.concat ", "
       (List.map
          (fun (st, r, w) -> Printf.sprintf "%s %.1fx / %.1fx" st r w)
          gate))
    (if ok then "within budget" else "BUDGET EXCEEDED")
    (json_file ~quick);
  write_json ~quick ~samples ~gate ~budget ~ok;
  if not ok then failwith "E12: front-half stage exceeded its scaling budget"
