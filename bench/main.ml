(* The experiment harness: regenerates every table in EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe            # E1-E18 and the ablation
     dune exec bench/main.exe -- micro   # bechamel microbenches only
     dune exec bench/main.exe -- e3 e5   # a subset
     dune exec bench/main.exe -- all     # experiments + microbenches

   Flags:
     --quick         shrink E11-E18 to the smoke runs check.sh times
     --resources N   run size-swept experiments (E2, E11, E16) at one
                     fleet size N instead of their built-in sweeps *)

let experiments =
  [
    ("e1", E1_deploy_scaling.run);
    ("e2", E2_incremental.run);
    ("e3", E3_locks.run);
    ("e4", E4_rollback.run);
    ("e5", E5_drift.run);
    ("e6", E6_validation.run);
    ("e7", E7_porting.run);
    ("e8", E8_policy.run);
    ("e9", E9_synthesis.run);
    ("e10", E10_rate_limit.run);
    ("e11", E11_scale.run);
    ("e12", E12_pipeline.run);
    ("e13", E13_crash.run);
    ("e14", E14_service.run);
    ("e15", E15_fleet.run);
    ("e16", E16_raw_speed.run);
    ("e17", E17_soak.run);
    ("e18", E18_wave.run);
    ("ablation", Ablation.run);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          Bench_util.quick := true;
          false
        end
        else true)
      args
  in
  (* --resources N: consume the flag and its value *)
  let rec eat_resources = function
    | "--resources" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v > 0 -> Bench_util.resources := Some v
        | _ ->
            Printf.eprintf "--resources expects a positive integer, got %S\n" n;
            exit 2);
        eat_resources rest
    | a :: rest -> a :: eat_resources rest
    | [] -> []
  in
  let args = eat_resources args in
  let run_experiments names =
    List.iter
      (fun n ->
        if n <> "micro" && not (List.mem_assoc n experiments) then begin
          Printf.eprintf "unknown experiment %S (known: %s, micro)\n" n
            (String.concat ", " (List.map fst experiments));
          exit 2
        end)
      names;
    List.iter
      (fun (name, f) -> if names = [] || List.mem name names then f ())
      experiments
  in
  match args with
  | [] ->
      print_endline "cloudless experiment harness (see EXPERIMENTS.md)";
      run_experiments []
  | [ "micro" ] -> Micro.run ()
  | [ "all" ] ->
      run_experiments [];
      Micro.run ()
  | names ->
      let micro = List.mem "micro" names in
      run_experiments (List.filter (fun n -> n <> "micro") names);
      if micro then Micro.run ()
