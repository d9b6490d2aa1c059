(* E2 (§3.3, accelerating deployment updates).

   Claim: confining an update to its impact scope slashes both the
   state-refresh API cost and the turnaround time, because "even a
   single resource update will trigger expensive queries on all
   cloud-level resource state".

   Setup: deploy a microservice fleet, then give k services a new AMI,
   which replaces each of their instances.  The baseline refreshes the
   whole state; the cloudless engine refreshes only the plan's impact
   scope, which [Executor.apply] derives from the plan itself.

   Self-asserting: every edited source must differ from the original
   and plan at least one change, and every incremental run must read
   fewer rows than its full run; otherwise the experiment fails. *)

open Bench_util
module Executor = Cloudless_deploy.Executor
module Plan = Cloudless_plan.Plan

let fleet services = Workload.microservices ~services ~instances_per_service:4 ()

let edit_services src k =
  (* a new AMI for each of the first k services *)
  let rec go src i =
    if i >= k then src
    else
      let sub = Printf.sprintf "\"ami-0svc%04d\"" i in
      let by = Printf.sprintf "\"ami-1svc%04d\"" i in
      go (Bench_util.replace src ~sub ~by) (i + 1)
  in
  go src 0

(* Deploy [src] on a fresh cloud, then apply [new_src] with [config]. *)
let run_update ~config src new_src =
  let cloud, report = deploy ~engine:Executor.cloudless_config src in
  let state = report.Executor.state in
  let plan = Plan.make ~state (expand_src ~state new_src) in
  if Plan.is_empty plan then
    failwith "E2: the edited source plans no change";
  Executor.apply cloud ~config ~state ~plan ()

let run_case services k =
  let src = fleet services in
  let new_src = edit_services src k in
  if new_src = src then failwith "E2: the edit left the source unchanged";
  let full = run_update ~config:Executor.baseline_config src new_src in
  let inc = run_update ~config:Executor.cloudless_config src new_src in
  if not (Executor.succeeded full && Executor.succeeded inc) then
    failwith "E2: an update failed";
  if inc.Executor.refresh_reads >= full.Executor.refresh_reads then
    failwith
      (Printf.sprintf "E2: incremental refresh read %d rows, full %d"
         inc.Executor.refresh_reads full.Executor.refresh_reads);
  row
    [ 14; 8; 12; 12; 12; 12 ]
    [
      Printf.sprintf "%d services" services;
      string_of_int k;
      Printf.sprintf "%d reads" full.Executor.refresh_reads;
      Printf.sprintf "%d reads" inc.Executor.refresh_reads;
      fmt_s (full.Executor.refresh_duration +. full.Executor.makespan);
      fmt_s (inc.Executor.refresh_duration +. inc.Executor.makespan);
    ];
  (full, inc)

let run () =
  section "E2: incremental updates — full refresh+replan vs impact scope";
  row [ 14; 8; 12; 12; 12; 12 ]
    [ "fleet"; "edited"; "full-rfsh"; "inc-rfsh"; "full-time"; "inc-time" ];
  hline [ 14; 8; 12; 12; 12; 12 ];
  (* the (services, edited) sweep; `--resources N` replaces the
     hardcoded fleet sizes with an N-service fleet at two edit widths *)
  let cases =
    match !Bench_util.resources with
    | Some n -> [ (n, 1); (n, max 1 (n / 5)) ]
    | None -> [ (10, 1); (10, 3); (25, 1); (25, 5); (25, 10) ]
  in
  let results = List.map (fun (s, k) -> run_case s k) cases in
  let read_savings =
    List.map
      (fun ((full : Executor.report), (inc : Executor.report)) ->
        pct (float_of_int inc.Executor.refresh_reads)
          (float_of_int full.Executor.refresh_reads))
      results
  in
  Printf.printf
    "\n  shape check: refresh reads cut by %.0f-%.0f%%; expected: savings grow\n\
    \  as the edit touches a smaller fraction of the fleet.\n"
    (List.fold_left min 100. read_savings)
    (List.fold_left max 0. read_savings)
