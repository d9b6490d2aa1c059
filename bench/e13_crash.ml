(* E13 (crash-anywhere chaos sweep): resumable applies vs end-only
   persistence.

   For a ~60-resource `Workload.fleet` the crash point k is swept
   across every write-operation index: the engine process dies at the
   (k+1)-th cloud write (`Failure.Crash_after k`), in-flight calls
   settle on the cloud with nobody listening, and a fresh engine
   incarnation takes over.  Two recovery disciplines compete:

   - baseline (Terraform-style end-only persistence): the state file
     is only written after a whole apply, so the crashed run recorded
     *nothing* — the restart re-applies the full plan from empty
     state.  Every resource the dead run created is now an untracked
     orphan, and every one of them is re-created: orphans and
     duplicate creates grow with k.

   - journaled (this PR): the write-ahead journal knows every op's
     intent and most outcomes; `Lifecycle.resume` replays it, adopts
     in-flight creates from the cloud's activity log, and re-applies
     only the remainder.  Required shape at every k: 0 orphans, 0
     duplicate creates, residual divergence 0 (the post-resume plan is
     empty), bounded re-work.

   Determinism is asserted at a mid-sweep k: two runs with the same
   seed and crash point must produce byte-identical journals and final
   states.  Results land in BENCH_crash.json; `--quick` samples a few
   crash points of a smaller fleet (≤5s) into BENCH_crash_quick.json. *)

open Bench_util
module Failure = Cloudless_sim.Failure
module Journal = Cloudless_state.Journal
module Recovery = Cloudless_deploy.Recovery
module Lifecycle = Cloudless.Lifecycle

type sample = {
  k : int;
  base_orphans : int;
  base_dup_creates : int;
  j_orphans : int;
  j_dup_creates : int;
  j_adopted : int;
  j_replanned : int;
  j_rework : int;  (** changes the resumed engine re-applied *)
  divergence : int;  (** journaled engine: non-noop changes post-resume *)
}

(* Baseline: crash the apply, then model a Terraform-style restart —
   the dead run persisted nothing, so the restart plans the full
   config against an EMPTY recorded state on the same (settled)
   cloud. *)
let run_baseline ~src ~seed ~k =
  let cloud = fresh_cloud ~seed () in
  let instances = expand_src src in
  let plan = Plan.make ~state:State.empty instances in
  let final_state =
    match
      Executor.apply cloud ~config:Executor.baseline_config ~state:State.empty
        ~plan ~crash:(Failure.Crash_after k) ()
    with
    | report -> report.Executor.state (* k past the last op: completed *)
    | exception Failure.Engine_crashed _ ->
        (* the run's state record died with the process; the restart
           plans against an empty state on the settled cloud *)
        Cloud.run_until_idle cloud;
        let plan2 = Plan.make ~state:State.empty (expand_src src) in
        (Executor.apply cloud ~config:Executor.baseline_config
           ~state:State.empty ~plan:plan2 ())
          .Executor.state
  in
  let n = List.length instances in
  let orphans = List.length (Recovery.orphans cloud ~states:[ final_state ]) in
  let dups = engine_creates cloud - n in
  (orphans, dups)

(* Journaled: crash the apply, resume, and demand convergence. *)
let run_journaled ~src ~seed ~k =
  let t = Lifecycle.create ~seed ~engine:Executor.cloudless_config () in
  Lifecycle.enable_journal t;
  Lifecycle.set_crash t (Failure.Crash_after k);
  let crashed, final_report, rr =
    match Lifecycle.deploy t src with
    | Ok report -> (false, report, None)
    | Error (Lifecycle.Crashed _) -> (
        match Lifecycle.resume t with
        | Ok (report, rr) -> (true, report, Some rr)
        | Error e ->
            failwith
              (Printf.sprintf "e13: resume failed at k=%d: %s" k
                 (Lifecycle.error_to_string e)))
    | Error e ->
        failwith
          (Printf.sprintf "e13: deploy failed at k=%d: %s" k
             (Lifecycle.error_to_string e))
  in
  let cloud = Lifecycle.cloud t in
  let state = Lifecycle.state t in
  let n =
    match Lifecycle.plan t with
    | Ok p -> List.length (Plan.actionable p)
    | Error e ->
        failwith
          (Printf.sprintf "e13: post-resume plan failed: %s"
             (Lifecycle.error_to_string e))
  in
  let total = State.size state in
  let orphans = List.length (Recovery.orphans cloud ~states:[ state ]) in
  let dups = engine_creates cloud - total in
  let entries =
    match Lifecycle.journal t with
    | Some j -> Journal.entries j
    | None -> []
  in
  ( orphans,
    dups,
    n (* residual divergence: non-noop changes left after resume *),
    rr,
    (if crashed then List.length final_report.Executor.applied else 0),
    entries,
    state )

let json_file ~quick = if quick then "BENCH_crash_quick.json" else "BENCH_crash.json"

let json_of_sample s =
  Printf.sprintf
    "    {\"k\": %d, \"base_orphans\": %d, \"base_dup_creates\": %d, \
     \"j_orphans\": %d, \"j_dup_creates\": %d, \"j_adopted\": %d, \
     \"j_replanned\": %d, \"j_rework\": %d, \"divergence\": %d}"
    s.k s.base_orphans s.base_dup_creates s.j_orphans s.j_dup_creates
    s.j_adopted s.j_replanned s.j_rework s.divergence

let write_json ~quick ~n ~samples ~determinism_ok ~ok =
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e13_crash\",\n\
    \  \"fleet_resources\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"samples\": [\n\
     %s\n\
    \  ],\n\
    \  \"summary\": {\"max_base_orphans\": %d, \"max_base_dup_creates\": %d, \
     \"journaled_all_clean\": %b, \"determinism_ok\": %b}\n\
     }\n"
    n quick
    (String.concat ",\n" (List.map json_of_sample samples))
    (List.fold_left (fun a s -> max a s.base_orphans) 0 samples)
    (List.fold_left (fun a s -> max a s.base_dup_creates) 0 samples)
    ok determinism_ok;
  close_out oc

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E13: kill-anywhere crash sweep%s"
       (if quick then " (quick)" else ""));
  let n = if quick then 24 else 60 in
  let src = Workload.fleet ~resources:n () in
  let seed = 42 in
  let ks =
    if quick then [ 0; 3; 11; n ]
    else List.init (n + 1) (fun k -> k) (* every op index + no-crash control *)
  in
  let widths = [ 5; 13; 10; 10; 9; 9; 11; 10 ] in
  row widths
    [
      "k"; "base_orphans"; "base_dup"; "j_orphans"; "j_dup"; "adopted";
      "replanned"; "diverge";
    ];
  hline widths;
  let samples =
    List.map
      (fun k ->
        let base_orphans, base_dup_creates = run_baseline ~src ~seed ~k in
        let j_orphans, j_dup_creates, divergence, rr, rework, _, _ =
          run_journaled ~src ~seed ~k
        in
        let j_adopted, j_replanned =
          match rr with
          | Some r ->
              ( List.length r.Recovery.adopted,
                List.length r.Recovery.replanned )
          | None -> (0, 0)
        in
        let s =
          {
            k;
            base_orphans;
            base_dup_creates;
            j_orphans;
            j_dup_creates;
            j_adopted;
            j_replanned;
            j_rework = rework;
            divergence;
          }
        in
        if quick || k mod 10 = 0 || k = n then
          row widths
            [
              string_of_int k;
              string_of_int base_orphans;
              string_of_int base_dup_creates;
              string_of_int j_orphans;
              string_of_int j_dup_creates;
              string_of_int j_adopted;
              string_of_int j_replanned;
              string_of_int divergence;
            ];
        s)
      ks
  in
  (* determinism: same seed + same crash point => byte-identical
     journal and final state *)
  let det_k = if quick then 3 else n / 2 in
  let _, _, _, _, _, entries1, state1 = run_journaled ~src ~seed ~k:det_k in
  let _, _, _, _, _, entries2, state2 = run_journaled ~src ~seed ~k:det_k in
  let determinism_ok =
    Journal.to_string entries1 = Journal.to_string entries2
    && State.to_string state1 = State.to_string state2
  in
  let ok =
    List.for_all
      (fun s -> s.j_orphans = 0 && s.j_dup_creates = 0 && s.divergence = 0)
      samples
  in
  let monotone =
    (* the baseline's orphan count must grow with the crash point
       (the k=n sample is the no-crash control — excluded) *)
    let orphans =
      List.filter_map
        (fun s -> if s.k < n then Some s.base_orphans else None)
        samples
    in
    match orphans with
    | [] | [ _ ] -> true
    | _ :: tail ->
        List.exists (fun o -> o > 0) orphans
        && List.for_all2
             (fun a b -> a <= b + 3 (* in-flight window slack *))
             (List.filteri (fun i _ -> i < List.length orphans - 1) orphans)
             tail
  in
  Printf.printf
    "\n\
    \  journaled engine: %s at every crash point (orphans=0, dup creates=0,\n\
    \  residual divergence=0); baseline orphans grow with k (max %d).\n\
    \  determinism (k=%d twice): %s.  wrote %s\n"
    (if ok then "converged clean" else "FAILED TO CONVERGE")
    (List.fold_left (fun a s -> max a s.base_orphans) 0 samples)
    det_k
    (if determinism_ok then "byte-identical journal+state" else "DIVERGED")
    (json_file ~quick);
  write_json ~quick ~n ~samples ~determinism_ok ~ok;
  if not ok then failwith "E13: journaled engine failed to converge clean";
  if not determinism_ok then failwith "E13: crash/resume is not deterministic";
  if not monotone then failwith "E13: baseline orphan count did not grow"
