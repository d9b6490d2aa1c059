(* The repo's benchmark.  Run from the repository root:

     dune exec bench/suite/main.exe -- run --workload W --seed S
         [--seconds N] [--trace 0|1] [--spans FILE] [--out FILE]
     dune exec bench/suite/main.exe -- smoke
     dune exec bench/suite/main.exe -- compare A.jsonl B.jsonl [--seed S]

   [run] prints every metric as "name value unit", then one JSON line
   {correct, attempted, failed, metrics}: the end-to-end metrics, or
   with [--trace 1] the per-layer ones.  It exits 1 when a correctness
   check fails.  See README.md for the workloads and metrics. *)

let workloads = [ "cold-apply"; "edit-loop"; "fleet-steady"; "fleet-chaos" ]

type size = Full | Smoke

(* Input sizes, each chosen so a pass takes 0.4 to 2.6 s on one core of
   a 2-core 2.0 GHz Xeon VM, leaving several passes in a run; the smoke
   size exercises the same code in well under a second. *)
let make ~size ~seed ~dir ~scenarios name =
  let pick full smoke = match size with Full -> full | Smoke -> smoke in
  let fleet file ~shrink_by ~checkpoint =
    let scn = Cloudless_controlplane.Scenario.load (Filename.concat scenarios file) in
    let scn = match size with Full -> scn | Smoke -> Fleet_workloads.shrink scn ~by:shrink_by in
    Fleet_workloads.fleet_workload ~scn ~seed ~checkpoint
  in
  match name with
  | "cold-apply" -> Cli_workloads.cold_apply ~dir ~seed ~resources:(pick 8000 400)
  | "edit-loop" ->
      Cli_workloads.edit_loop ~dir ~seed ~resources:(pick 2000 200) ~cycles:(pick 8 3)
  | "fleet-steady" -> fleet "fleet-steady.scn" ~shrink_by:32 ~checkpoint:false
  | "fleet-chaos" -> fleet "fleet-chaos.scn" ~shrink_by:32 ~checkpoint:true
  | _ -> raise (Arg.Bad ("unknown workload " ^ name ^ " (" ^ String.concat ", " workloads ^ ")"))

(* A working directory for the CLI workloads' files, under the build
   directory of wherever the suite runs; removed at exit. *)
let work_dir () =
  let dir = Filename.concat "_build" (Printf.sprintf "bench-suite-%d" (Unix.getpid ())) in
  if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir);
  dir

let cores = Domain.recommended_domain_count ()

let run_cmd ~workload ~seed ~seconds ~trace ~spans ~out ~scenarios =
  let dir = work_dir () in
  let w = make ~size:Full ~seed ~dir ~scenarios workload in
  let r = Runner.run ?spans_path:spans w ~seconds ~trace ~min_passes:3 in
  Printf.printf "workload %s seed %d seconds %g passes %d cores %d ocaml %s\n" workload seed
    seconds r.Runner.passes cores Sys.ocaml_version;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %s\n" name (Json.number v) unit)
    r.Runner.metrics;
  List.iter
    (fun (name, xs) ->
      let q1, m, q3 = Stats.quartiles xs in
      Printf.printf "samples %s n %d q1 %.6g median %.6g q3 %.6g\n" name (List.length xs) q1 m q3)
    r.Runner.samples;
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) r.Runner.failures;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str workload);
                ("seed", Json.Num (float_of_int seed));
                ("seconds", Json.Num seconds);
                ("trace", Json.Bool trace);
                ("passes", Json.Num (float_of_int r.Runner.passes));
                ("cores", Json.Num (float_of_int cores));
                ("ocaml", Json.Str Sys.ocaml_version);
                ("correct", Json.Bool r.Runner.correct);
                ("attempted", Json.Num (float_of_int r.Runner.attempted));
                ("failed", Json.Num (float_of_int r.Runner.failed));
                ("metrics", Runner.metrics_json r);
                ( "samples",
                  Json.Obj
                    (List.map
                       (fun (k, xs) -> (k, Json.List (List.map (fun x -> Json.Num x) xs)))
                       r.Runner.samples) );
              ])
        ^ "\n");
      close_out oc)
    out;
  print_endline (Json.to_string (Runner.summary_json r));
  if r.Runner.correct then 0 else 1

(* BENCHMARK.json must declare exactly the metrics the suite prints. *)
let declared_metrics benchmark =
  let j = Json.of_file benchmark in
  let names key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key j))
  in
  let wl = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" j)) in
  [
    ("BENCHMARK.json workloads match", wl = workloads);
    ("BENCHMARK.json end_to_end matches", names "end_to_end" = Runner.end_to_end);
    ("BENCHMARK.json per_layer matches", names "per_layer" = Runner.per_layer);
  ]

(* Every workload at the smoke size, traced, with every check enforced. *)
let smoke_cmd ~scenarios ~benchmark =
  let dir = work_dir () in
  let failures = ref [] in
  let fail what = failures := what :: !failures in
  List.iter (fun (what, ok) -> if not ok then fail what) (declared_metrics benchmark);
  List.iter
    (fun name ->
      let w = make ~size:Smoke ~seed:1 ~dir ~scenarios name in
      let t0 = Unix.gettimeofday () in
      let r = Runner.run w ~seconds:0. ~trace:true ~min_passes:2 in
      let coverage =
        List.fold_left
          (fun acc (m, v, _) -> if m = "trace_coverage_pct" then v else acc)
          0. r.Runner.metrics
      in
      Printf.printf "%-13s %s  %d ops in %d passes, coverage %.1f%%, %.2f s\n" name
        (if r.Runner.correct then "ok" else "FAILED")
        r.Runner.attempted r.Runner.passes coverage
        (Unix.gettimeofday () -. t0);
      List.iter (fun f -> fail (name ^ ": " ^ f)) r.Runner.failures;
      if String.starts_with ~prefix:"fleet" name = false && coverage < 90. then
        fail (Printf.sprintf "%s: layer coverage %.1f%% < 90%%" name coverage))
    workloads;
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) (List.rev !failures);
  if !failures = [] then 0 else 1

let usage =
  "main.exe run --workload W --seed S [--seconds N] [--trace 0|1] [--spans FILE] [--out FILE]\n\
   main.exe smoke [--scenarios DIR] [--benchmark FILE]\n\
   main.exe compare A.jsonl B.jsonl [--seed S] [--benchmark FILE]"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 20. and trace = ref 0 in
  let spans = ref None and out = ref None in
  let scenarios = ref "bench/suite/workloads" and benchmark = ref "BENCHMARK.json" in
  let anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Int (fun s -> seed := Some s), "S  seeds the simulator and the edit sequence; compare: only runs of seed S");
      ("--seconds", Arg.Set_float seconds, "N  time budget of the run, warm-up included (default 20)");
      ("--trace", Arg.Int (fun t -> trace := t), "0|1  add a traced pass; print per-layer metrics");
      ("--spans", Arg.String (fun p -> spans := Some p; trace := 1), "FILE  write the traced pass's spans as JSON lines");
      ("--out", Arg.String (fun p -> out := Some p), "FILE  append this run's record as one JSON line");
      ("--scenarios", Arg.Set_string scenarios, "DIR  where the fleet scenario files are");
      ("--benchmark", Arg.Set_string benchmark, "FILE  the BENCHMARK.json to read");
    ]
  in
  let code =
    match Arg.parse_argv Sys.argv specs (fun a -> anon := a :: !anon) usage with
    | exception Arg.Help msg ->
        print_string msg;
        0
    | exception Arg.Bad msg ->
        prerr_string msg;
        2
    | () -> (
        try
          match List.rev !anon with
          | [ "run" ] -> (
              match (!seed, !trace) with
              | None, _ -> raise (Arg.Bad "run needs --seed")
              | _, t when t <> 0 && t <> 1 -> raise (Arg.Bad "--trace takes 0 or 1")
              | Some seed, t ->
                  run_cmd ~workload:!workload ~seed ~seconds:!seconds ~trace:(t = 1) ~spans:!spans
                    ~out:!out ~scenarios:!scenarios)
          | [ "smoke" ] -> smoke_cmd ~scenarios:!scenarios ~benchmark:!benchmark
          | [ "compare"; a; b ] ->
              if Compare.run ~benchmark:!benchmark ?seed:!seed a b = 0 then 0 else 1
          | _ -> raise (Arg.Bad usage)
        with Arg.Bad msg ->
          prerr_endline msg;
          2)
  in
  exit code
