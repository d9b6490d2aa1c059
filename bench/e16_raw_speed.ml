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

   A second leg splits a multi-fleet plan by weakly-connected
   component ({!Cloudless_deploy.Components}) and applies it at --domains
   {1, 2, 4}.  The merged report must be byte-identical at every
   domain count — asserted here via digests over the applied order,
   makespan, counters, and the rendered state — and the leg records
   wall times and speedups (meaningful only when the host actually has
   cores; the JSON carries [cores] so readers can tell).

   Results land in BENCH_raw.json; `--quick` runs a small sweep into
   BENCH_raw_quick.json (gitignored).  `--resources N` overrides the
   sweep with a single size. *)

open Bench_util
module Executor = Cloudless_deploy.Executor
module Components = Cloudless_deploy.Components
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
(* Domain-parallel leg                                                 *)
(* ------------------------------------------------------------------ *)

type domain_sample = {
  domains : int;  (** requested width (0 = size to the machine) *)
  effective : int;  (** what the pool actually ran: capped at
                        [min components cores] (see {!Components.report}) *)
  dwall_s : float;
  speedup : float;  (** vs the domains=1 run of the same plan *)
  digest : string;
}

(* Everything observable about a split apply, digested; any
   domain-count dependence whatsoever changes the hex. *)
let report_digest (r : Components.report) =
  let buf = Buffer.create 4096 in
  let addrs l = List.iter (fun a -> Buffer.add_string buf (Addr.to_string a); Buffer.add_char buf '\n') l in
  addrs r.Components.applied;
  addrs r.Components.skipped;
  List.iter
    (fun (f : Executor.failure) ->
      Buffer.add_string buf (Addr.to_string f.Executor.faddr);
      Buffer.add_string buf f.Executor.reason;
      Buffer.add_char buf '\n')
    r.Components.failed;
  Buffer.add_string buf (Printf.sprintf "%.17g\n" r.Components.makespan);
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d %d\n" r.Components.api_calls r.Components.retries
       r.Components.throttled r.Components.sched_picks r.Components.peak_ready);
  Buffer.add_string buf (State.to_string r.Components.state);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_domains ~n ~fleets =
  let instances = Workload.fleet_instances ~fleets ~resources:n () in
  let plan = Plan.make ~state:State.empty instances in
  let run domains =
    let r =
      Components.apply
        ~make_cloud:(fun _ -> fresh_cloud ~seed:42 ())
        ~domains ~config:Executor.cloudless_config ~state:State.empty ~plan ()
    in
    assert (Components.succeeded r);
    (r, report_digest r)
  in
  let base, base_digest = run 1 in
  let samples =
    List.map
      (fun d ->
        let r, digest = run d in
        (* the tentpole's hard invariant: output is byte-identical at
           any domain count — including 0, the auto-detected width *)
        assert (digest = base_digest);
        {
          domains = d;
          effective = r.Components.domains;
          dwall_s = r.Components.wall_s;
          speedup =
            (if r.Components.wall_s > 0. then base.Components.wall_s /. r.Components.wall_s
             else 0.);
          digest;
        })
      [ 1; 2; 4; 0 ]
  in
  (samples, List.length base.Components.parts)

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

let json_of_domain_sample d =
  Printf.sprintf
    "    {\"domains\": %d, \"effective_domains\": %d, \"wall_s\": %.6f, \
     \"speedup\": %.2f, \"digest\": \"%s\"}"
    d.domains d.effective d.dwall_s d.speedup d.digest

let write_json ~quick ~samples ~domain_samples ~dom_n ~dom_fleets ~shards =
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
    \  \"domain_leg\": {\"n\": %d, \"fleets\": %d, \"shards\": %d, \
     \"byte_identical\": true, \"runs\": [\n\
     %s\n\
    \  ]}\n\
     }\n"
    quick
    (Domain.recommended_domain_count ())
    (String.concat ",\n" (List.map json_of_sample samples))
    dom_n dom_fleets shards
    (String.concat ",\n" (List.map json_of_domain_sample domain_samples));
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
  let dom_n, dom_fleets =
    match !Bench_util.resources with
    | Some n -> (n, 8)
    | None -> if quick then (2_000, 8) else (100_000, 8)
  in
  let domain_samples, shards = run_domains ~n:dom_n ~fleets:dom_fleets in
  Printf.printf "\n  domain leg: n=%d over %d fleets -> %d component(s), %d core(s)\n"
    dom_n dom_fleets shards
    (Domain.recommended_domain_count ());
  List.iter
    (fun d ->
      Printf.printf "    domains=%d  wall=%.3fs  speedup=%.2fx  digest=%s\n"
        d.domains d.dwall_s d.speedup
        (String.sub d.digest 0 12))
    domain_samples;
  let top = List.nth samples (List.length samples - 1) in
  Printf.printf
    "\n\
    \  shape check: identical digests at --domains {1,2,4,0} (asserted);\n\
    \  WAL journal adds %.1f us/change (%.1f%% of the pure-engine apply\n\
    \  wall; the flush-per-intent contract floors that ratio), group\n\
    \  commit (K=64) %.1f us/change — against the 0.15 s simulated API\n\
    \  round-trip either is <0.01%%.  Bare apply allocates %.0f minor\n\
    \  words/change (budget %.0f).\n\
    \  wrote %s\n"
    top.journal_us_per_change top.journal_overhead_pct
    top.group_us_per_change top.exec_words_per_change alloc_budget
    (json_file ~quick);
  write_json ~quick ~samples ~domain_samples ~dom_n ~dom_fleets ~shards
