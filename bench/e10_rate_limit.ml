(* E10 (§3.3, rate-limit-aware deployment).

   Claim: bursting write calls into a throttled management API causes
   429s and retry storms; client-side pacing against the documented
   budget avoids throttling entirely at (nearly) no makespan cost.

   Workload: wide fleets of fast-to-create resources deployed all at
   once — the worst case for burst admission.  Columns: 429 responses,
   retries, API calls and makespan per engine. *)

open Bench_util
module Executor = Cloudless_deploy.Executor

let burst n =
  Printf.sprintf
    {|
resource "aws_security_group" "sg" {
  count  = %d
  name   = "sg-${count.index}"
  vpc_id = "vpc-external"
  region = "us-east-1"
}
|}
    n

(* the parent-existence check would reject vpc-external; use a config
   without cross-resource checks to isolate the rate-limit behaviour.
   The cloud enforces the tight Azure-style budget (1200 writes/hour),
   and the paced engine reads that budget from it. *)
let deploy_burst ~engine n =
  let cloud =
    Cloudless_sim.Cloud.create
      ~write_limiter:(Cloudless_sim.Rate_limiter.azure_write ())
      ~read_limiter:(Cloudless_sim.Rate_limiter.azure_read ())
      ~seed:51 ()
  in
  let instances = expand_src (burst n) in
  let plan = Cloudless_plan.Plan.make ~state:Bench_util.State.empty instances in
  let report =
    Executor.apply cloud ~config:engine ~state:Bench_util.State.empty ~plan ()
  in
  report

let unpaced =
  { Executor.cloudless_config with Executor.name = "unpaced"; client_pacing = false }

let paced = { Executor.cloudless_config with Executor.name = "paced" }

let run_case n =
  let a = deploy_burst ~engine:unpaced n in
  let b = deploy_burst ~engine:paced n in
  assert (Executor.succeeded a && Executor.succeeded b);
  row
    [ 6; 10; 10; 10; 10; 12; 12 ]
    [
      string_of_int n;
      string_of_int a.Executor.throttled;
      string_of_int a.Executor.retries;
      string_of_int b.Executor.throttled;
      string_of_int b.Executor.retries;
      fmt_s a.Executor.makespan;
      fmt_s b.Executor.makespan;
    ];
  (a, b)

let run () =
  section "E10: API rate limits — burst admission vs client-side pacing";
  row [ 6; 10; 10; 10; 10; 12; 12 ]
    [ "n"; "b-429s"; "b-retry"; "p-429s"; "p-retry"; "b-time"; "p-time" ];
  hline [ 6; 10; 10; 10; 10; 12; 12 ];
  let results = List.map run_case [ 20; 60; 120; 200 ] in
  let burst_429s =
    List.fold_left (fun acc (a, _) -> acc + a.Executor.throttled) 0 results
  in
  let paced_429s =
    List.fold_left (fun acc (_, b) -> acc + b.Executor.throttled) 0 results
  in
  Printf.printf
    "\n  shape check: bursting provokes %d total 429s across the sweep while\n\
    \  pacing provokes %d; above the bucket burst size (~40) both engines are\n\
    \  bound by the providers' refill rate, so makespans converge.\n"
    burst_429s paced_429s
