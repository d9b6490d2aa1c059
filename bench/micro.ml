(* Wall-clock microbenchmarks of the framework's own hot paths, via
   Bechamel: parsing, expansion, graph analysis, planning, state
   serialization.  These measure the *tooling* cost (always sub-second
   here), complementing E1-E10 which measure simulated cloud time. *)

open Bechamel
open Toolkit

let web_src = Cloudless_workload.Workload.microservices ~services:10 ()

let parsed = Cloudless_hcl.Config.parse ~file:"micro.tf" web_src

let expanded = (Cloudless_hcl.Eval.expand parsed).Cloudless_hcl.Eval.instances

let graph = Cloudless_graph.Dag.of_instances expanded

let state_of_instances () =
  List.fold_left
    (fun s (i : Cloudless_hcl.Eval.instance) ->
      Cloudless_state.State.add s
        {
          Cloudless_state.State.addr = i.Cloudless_hcl.Eval.addr;
          cloud_id = Cloudless_hcl.Addr.to_string i.Cloudless_hcl.Eval.addr;
          rtype = i.Cloudless_hcl.Eval.addr.Cloudless_hcl.Addr.rtype;
          region = "us-east-1";
          recorded =
            Cloudless_hcl.Recorded.of_map
              (Cloudless_hcl.Value.Smap.filter
                 (fun _ v -> not (Cloudless_hcl.Value.has_unknown v))
                 i.Cloudless_hcl.Eval.attrs);
          deps = [];
        })
    Cloudless_state.State.empty expanded

let state = state_of_instances ()
let state_text = Cloudless_state.State.to_string state

let tests =
  Test.make_grouped ~name:"cloudless" ~fmt:"%s/%s"
    [
      Test.make ~name:"parse (10-svc fleet)"
        (Staged.stage (fun () ->
             ignore (Cloudless_hcl.Config.parse ~file:"micro.tf" web_src)));
      Test.make ~name:"expand"
        (Staged.stage (fun () -> ignore (Cloudless_hcl.Eval.expand parsed)));
      Test.make ~name:"graph build"
        (Staged.stage (fun () ->
             ignore (Cloudless_graph.Dag.of_instances expanded)));
      Test.make ~name:"topo+critical path"
        (Staged.stage (fun () ->
             ignore
               (Cloudless_graph.Dag.critical_path graph ~duration:(fun _ -> 1.))));
      Test.make ~name:"plan diff"
        (Staged.stage (fun () ->
             ignore (Cloudless_plan.Plan.make ~state expanded)));
      Test.make ~name:"validate (full)"
        (Staged.stage (fun () ->
             ignore (Cloudless_validate.Validate.validate_config parsed)));
      Test.make ~name:"state serialize"
        (Staged.stage (fun () -> ignore (Cloudless_state.State.to_string state)));
      Test.make ~name:"state parse"
        (Staged.stage (fun () ->
             ignore (Cloudless_state.State.of_string state_text)));
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  results

let run () =
  Bench_util.section "MICRO: framework hot paths (wall clock, via bechamel)";
  let results = benchmark () in
  Hashtbl.iter
    (fun _label by_test ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_test []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Printf.printf "  %-40s %10.1f ns/run\n" name t
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        rows)
    results
