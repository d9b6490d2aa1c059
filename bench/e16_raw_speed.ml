(* E16 (raw-speed core): per-stage engine cost from 10k to 1M resources.

   E11 established that scheduler bookkeeping stays negligible at 10k
   resources; this experiment extends the question to the whole
   pipeline and two orders of magnitude further.  For each fleet size
   it times every stage in isolation on the interned-id hot path —

     eval      Workload.fleet_instances (the pre-sized fast path)
     intern    address -> dense id table build
     plan      state diff + change list (Plan.make on empty state)
     dag       flat execution graph + Kahn rounds
     execute   full Executor.apply on a fresh simulated cloud
     journal   the same apply with a write-ahead journal attached

   — recording wall seconds and Gc.minor_words allocation deltas per
   stage, plus the journal's overhead over the bare apply.  Two
   readings of that overhead are reported: relative to the pure-engine
   apply wall (honest but harsh — the fused direct-to-buffer encoder
   plus [~retain:false] cut it from ~160% to ~50-60%, and the WAL
   contract floors it there: one flush syscall per intent is already
   ~4-5% of a 15 us/change apply, encoding the rest), and as absolute
   microseconds per change — the number that matters against a real
   cloud, where a single API round-trip (0.15 simulated seconds here,
   ~100 ms in life) dwarfs the ~10 us the journal adds per change by
   four orders of magnitude.

   A last leg applies an 8-fleet plan once through Executor.apply and
   prints a digest of everything observable about the run: the
   applied, skipped and failed order, the makespan, the counters and
   the rendered state.  BENCH_raw.json records it as "multi_fleet", so
   a later engine change can be checked against it byte for byte.

   Results land in BENCH_raw.json; `--quick` runs a small sweep into
   BENCH_raw_quick.json (gitignored).  `--resources N` overrides the
   sweep with a single size. *)

open Bench_util
module Executor = Cloudless_deploy.Executor
module Plan = Cloudless_plan.Plan
module Intern = Cloudless_graph.Intern
module Dag = Cloudless_graph.Dag
module Journal = Cloudless_state.Journal
module Eval = Cloudless_hcl.Eval
module Addr = Cloudless_hcl.Addr

(* Per-run scratch journal; lives inside the repo tree (gitignored)
   because the harness must not write outside it. *)
let journal_scratch = "BENCH_journal_scratch.journal"

type stage = { name : string; wall_s : float; minor_mwords : float }

let timed name f =
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_mwords = (Gc.minor_words () -. mw0) /. 1e6 in
  (r, { name; wall_s; minor_mwords })

type sample = {
  n : int;
  stages : stage list;
  journal_overhead_pct : float;  (** vs the pure-engine apply wall *)
  journal_us_per_change : float;  (** absolute added cost per change *)
  group_us_per_change : float;
      (** same, for group commit (K=64): one flush barrier per batch
          instead of one per intent *)
  exec_words_per_change : float;  (** minor words the bare apply costs *)
  ok : bool;
}

(* One full pipeline pass at fleet size [n], each stage timed alone. *)
let run_size n =
  let instances, s_eval =
    timed "eval" (fun () -> Workload.fleet_instances ~resources:n ())
  in
  assert (List.length instances = n);
  let _it, s_intern =
    timed "intern" (fun () ->
        let it = Intern.create ~capacity:(2 * n) () in
        List.iter
          (fun (i : Eval.instance) -> ignore (Intern.intern it i.Eval.addr))
          instances;
        it)
  in
  let plan, s_plan =
    timed "plan" (fun () -> Plan.make ~state:State.empty instances)
  in
  let _rounds, s_dag =
    timed "dag" (fun () ->
        let g = Plan.exec_graph plan in
        let n = Dag.size g in
        Dag.rounds_into g ~order:(Array.make (max 1 n) 0)
          ~offsets:(Array.make (n + 1) 0))
  in
  (* Both apply legs keep only scalars from their reports (the cloud
     and the 50k-row result state must not stay live and tax the other
     leg's GC), and each starts from a compacted heap so leg order
     cannot bias the comparison. *)
  let apply_leg ~journal () =
    let cloud = fresh_cloud ~seed:42 () in
    let r =
      Executor.apply cloud ~config:Executor.cloudless_config
        ~state:State.empty ~plan ?journal ~sched:Executor.Sched_heap ()
    in
    (* the applied list's spine is tiny and its addrs are shared with
       the live plan — keeping it costs nothing, unlike the state *)
    (r.Executor.makespan, r.Executor.applied, Executor.succeeded r)
  in
  Gc.compact ();
  let bare, s_execute = timed "execute" (apply_leg ~journal:None) in
  let journal_leg name mode =
    Gc.compact ();
    let r, st =
      timed name (fun () ->
          let journal =
            Journal.create ~path:journal_scratch ~retain:false ~mode ()
          in
          let r = apply_leg ~journal:(Some journal) () in
          Journal.close journal;
          r)
    in
    if Sys.file_exists journal_scratch then Sys.remove journal_scratch;
    (* journaling must not change the deployment, only its wall cost *)
    let bare_makespan, bare_applied, bare_ok = bare in
    let j_makespan, j_applied, j_ok = r in
    assert (bare_makespan = j_makespan);
    assert (bare_applied = j_applied);
    (* the fleet workload is valid at every size here; a failed apply
       is an engine regression, not a measurement *)
    assert (bare_ok && j_ok);
    st
  in
  let s_journal = journal_leg "journal" Journal.Wal in
  let s_group = journal_leg "group" (Journal.Group 64) in
  let _, _, bare_ok = bare in
  let overhead =
    if s_execute.wall_s > 0. then
      100. *. ((s_journal.wall_s /. s_execute.wall_s) -. 1.)
    else 0.
  in
  let us_per_change st =
    (st.wall_s -. s_execute.wall_s) /. float_of_int n *. 1e6
  in
  {
    n;
    stages = [ s_eval; s_intern; s_plan; s_dag; s_execute; s_journal; s_group ];
    journal_overhead_pct = overhead;
    journal_us_per_change = us_per_change s_journal;
    group_us_per_change = us_per_change s_group;
    exec_words_per_change = s_execute.minor_mwords *. 1e6 /. float_of_int n;
    ok = bare_ok;
  }

(* ------------------------------------------------------------------ *)
(* Multi-fleet fingerprint                                             *)
(* ------------------------------------------------------------------ *)

(* Everything observable about one apply, digested: any change to the
   pick order, the pacing, the counters or the state rows changes the
   hex. *)
let report_digest (r : Executor.report) =
  let buf = Buffer.create 4096 in
  let addrs l = List.iter (fun a -> Buffer.add_string buf (Addr.to_string a); Buffer.add_char buf '\n') l in
  addrs r.Executor.applied;
  addrs r.Executor.skipped;
  List.iter
    (fun (f : Executor.failure) ->
      Buffer.add_string buf (Addr.to_string f.Executor.faddr);
      Buffer.add_string buf f.Executor.reason;
      Buffer.add_char buf '\n')
    r.Executor.failed;
  Buffer.add_string buf (Printf.sprintf "%.17g\n" r.Executor.makespan);
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d %d\n" r.Executor.api_calls r.Executor.retries
       r.Executor.throttled r.Executor.sched_picks r.Executor.peak_ready);
  Buffer.add_string buf (State.to_string r.Executor.state);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let multi_fleet_digest ~n ~fleets =
  let instances = Workload.fleet_instances ~fleets ~resources:n () in
  let plan = Plan.make ~state:State.empty instances in
  let r =
    Executor.apply (fresh_cloud ~seed:42 ()) ~config:Executor.cloudless_config
      ~state:State.empty ~plan ()
  in
  assert (Executor.succeeded r);
  report_digest r

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_file ~quick = if quick then "BENCH_raw_quick.json" else "BENCH_raw.json"

let json_of_sample s =
  let stage_fields =
    String.concat ", "
      (List.map
         (fun st ->
           Printf.sprintf "\"%s_s\": %.6f, \"%s_minor_mwords\": %.3f" st.name
             st.wall_s st.name st.minor_mwords)
         s.stages)
  in
  Printf.sprintf
    "    {\"n\": %d, %s, \"journal_overhead_pct\": %.2f, \
     \"journal_us_per_change\": %.2f, \"group_us_per_change\": %.2f, \
     \"exec_words_per_change\": %.1f, \"succeeded\": %b}"
    s.n stage_fields s.journal_overhead_pct s.journal_us_per_change
    s.group_us_per_change s.exec_words_per_change s.ok

let write_json ~quick ~samples ~mf_n ~mf_fleets ~digest =
  let oc = open_out (json_file ~quick) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"e16_raw_speed\",\n\
    \  \"engine\": \"cloudless\",\n\
    \  \"quick\": %b,\n\
    \  \"cores\": %d,\n\
    \  \"samples\": [\n\
     %s\n\
    \  ],\n\
    \  \"multi_fleet\": {\"n\": %d, \"fleets\": %d, \"digest\": \"%s\"}\n\
     }\n"
    quick
    (Domain.recommended_domain_count ())
    (String.concat ",\n" (List.map json_of_sample samples))
    mf_n mf_fleets digest;
  close_out oc

let run () =
  let quick = !Bench_util.quick in
  section
    (Printf.sprintf "E16: raw-speed core — per-stage cost, 10k to 1M%s"
       (if quick then " (quick)" else ""));
  let sizes =
    match !Bench_util.resources with
    | Some n -> [ n ]
    | None -> if quick then [ 1_000; 5_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  let widths = [ 9; 8; 8; 8; 9; 9; 8; 8; 8; 5 ] in
  row widths
    [ "n"; "eval"; "plan"; "dag"; "execute"; "exec-w/c"; "exec-MW";
      "wal-us"; "grp-us"; "ok" ];
  hline widths;
  let samples =
    List.map
      (fun n ->
        let s = run_size n in
        let stage name =
          List.find (fun st -> st.name = name) s.stages
        in
        row widths
          [
            string_of_int s.n;
            Printf.sprintf "%.3fs" (stage "eval").wall_s;
            Printf.sprintf "%.3fs" (stage "plan").wall_s;
            Printf.sprintf "%.3fs" (stage "dag").wall_s;
            Printf.sprintf "%.3fs" (stage "execute").wall_s;
            Printf.sprintf "%.0fw" s.exec_words_per_change;
            Printf.sprintf "%.0fMW" (stage "execute").minor_mwords;
            Printf.sprintf "%.1fus" s.journal_us_per_change;
            Printf.sprintf "%.1fus" s.group_us_per_change;
            (if s.ok then "yes" else "NO");
          ];
        s)
      sizes
  in
  (* Allocation regression gate (scripts/check.sh runs the quick
     sweep): the bare apply must stay within budget per change.  The
     budget carries ~35% headroom over the measured ~430 w/change so
     timing noise never trips it while a reintroduced per-change
     tree-path copy (~+100 w) or closure pileup still does. *)
  let alloc_budget = 600. in
  List.iter
    (fun s ->
      if s.exec_words_per_change > alloc_budget then begin
        Printf.printf
          "  ALLOC REGRESSION: %.0f minor words/change at n=%d (budget %.0f)\n"
          s.exec_words_per_change s.n alloc_budget;
        exit 1
      end)
    samples;
  let mf_n, mf_fleets =
    match !Bench_util.resources with
    | Some n -> (n, 8)
    | None -> if quick then (2_000, 8) else (100_000, 8)
  in
  let digest = multi_fleet_digest ~n:mf_n ~fleets:mf_fleets in
  Printf.printf "\n  multi-fleet apply: n=%d over %d fleets, digest=%s\n" mf_n
    mf_fleets (String.sub digest 0 12);
  let top = List.nth samples (List.length samples - 1) in
  Printf.printf
    "\n\
    \  shape check: the journaled applies match the bare one (asserted);\n\
    \  WAL journal adds %.1f us/change (%.1f%% of the pure-engine apply\n\
    \  wall; the flush-per-intent contract floors that ratio), group\n\
    \  commit (K=64) %.1f us/change — against the 0.15 s simulated API\n\
    \  round-trip either is <0.01%%.  Bare apply allocates %.0f minor\n\
    \  words/change (budget %.0f).\n\
    \  wrote %s\n"
    top.journal_us_per_change top.journal_overhead_pct
    top.group_us_per_change top.exec_words_per_change alloc_budget
    (json_file ~quick);
  write_json ~quick ~samples ~mf_n ~mf_fleets ~digest
