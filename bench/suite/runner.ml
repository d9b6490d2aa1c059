(* One run of one workload: a warm-up pass, timed passes until the time
   budget is spent, the audit, and with [trace] one traced pass.  The
   metric names and units here are the ones BENCHMARK.json declares;
   [smoke] checks that the two lists agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("throughput_ops_s", "1/s");
    ("cycle_p50_ms", "ms");
    ("cycle_p75_ms", "ms");
    ("sim_makespan_s", "s");
    ("sim_request_p50_s", "s");
    ("sim_request_p99_s", "s");
    ("api_calls_per_op", "count");
    ("alloc_kwords_per_op", "kwords");
    ("peak_heap_mb", "MB");
  ]

(* The suite's per-layer spans, by layer: the layer is the name's
   prefix up to the first dot, after the lib/ module it times. *)
let timed_spans =
  [
    "state.load"; "state.save"; "sim.restore"; "hcl.parse"; "hcl.eval";
    "validate.check"; "plan.make"; "plan.render"; "deploy.apply";
    "controlplane.drive"; "controlplane.checkpoint";
  ]

let layers = [ "state"; "sim"; "hcl"; "validate"; "plan"; "deploy"; "controlplane" ]
let layer_of span = String.sub span 0 (String.index span '.')

(* Per-layer values the workloads read from the program itself. *)
let counters =
  [
    ("state.bytes", "bytes"); ("state.journal_s", "s");
    ("controlplane.requests", "count"); ("controlplane.requests_done", "count");
    ("controlplane.reconciles", "count"); ("controlplane.deferred", "count");
    ("controlplane.work_failures", "count"); ("controlplane.queue_wait_p99_s", "s");
    ("controlplane.request_spans", "count"); ("controlplane.reconcile_spans", "count");
    ("controlplane.failed_ops_frac", "ratio");
    ("lock.grants", "count"); ("lock.waits", "count"); ("lock.wait_ratio", "ratio");
    ("sim.api_reads", "count"); ("sim.api_writes", "count"); ("sim.throttled", "count");
    ("sim.throttle_ratio", "ratio"); ("sim.log_deliveries", "count");
    ("sim.episode_faults", "count");
    ("drift.events", "count"); ("drift.cross_shard_routed", "count");
    ("drift.repair_p50_s", "s");
    ("breaker.opened", "count"); ("breaker.fast_fails", "count");
    ("breaker.parked", "count"); ("breaker.degraded_time_s", "s");
    ("wave.submitted", "count"); ("wave.gate_checks", "count");
    ("wave.mgmt_calls", "count"); ("wave.rollbacks", "count"); ("wave.committed", "count");
  ]

(* Per-layer values summed from the library's own spans:
   (metric, library span, counter). *)
let lib_counters =
  [
    ("hcl.instances", "expand", "instances");
    ("plan.creates", "plan", "creates");
    ("plan.updates", "plan", "updates");
    ("plan.replaces", "plan", "replaces");
    ("plan.deletes", "plan", "deletes");
    ("plan.noops", "plan", "noops");
    ("deploy.api_calls", "execute", "api_calls");
    ("deploy.throttled", "execute", "throttled");
    ("deploy.retries", "execute", "retries");
    ("deploy.refresh_reads", "execute", "refresh_reads");
    ("deploy.sched_picks", "execute", "sched_picks");
  ]

let per_layer =
  List.map (fun s -> (s ^ "_s", "s")) timed_spans
  @ List.map (fun l -> (l ^ ".share_pct", "%")) layers
  @ List.map (fun l -> (l ^ ".mwords", "Mwords")) layers
  @ List.map (fun (m, _, _) -> (m, "count")) lib_counters
  @ [ ("plan.useful_ratio", "ratio"); ("deploy.refresh_reads_per_change", "ratio") ]
  @ counters
  @ [ ("trace_overhead_pct", "%"); ("trace_coverage_pct", "%") ]

type result = {
  correct : bool;
  failures : string list;  (** names of the checks that failed *)
  attempted : int;
  failed : int;
  passes : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  samples : (string * float list) list;  (** raw timings, s, in pass order *)
}

let now = Unix.gettimeofday

(* Co-tenants of a shared box contend for its caches and memory
   bandwidth, which swings raw pass times by up to 1.8x for minutes at a
   time.  Before every timed pass, and after the last, the runner times
   [kernel], a fixed computation on the standard library alone, so that
   no change to the program can speed it up: string-keyed map inserts
   and a sort, as in the program's state handling, then printing and
   splitting text, as in its parsers and serializers.  Each pass's times
   are scaled by [reference_s] over the mean of the kernel's times just
   before and just after it.  Every time metric is thus in reference
   seconds: the time the pass takes when the box runs the kernel in
   [reference_s], as a quiet 2-core 2.0 GHz Xeon VM does.  README.md
   gives the spreads with and without calibration. *)
module Smap = Map.Make (String)

let reference_s = 0.025

let kernel () =
  let m = ref Smap.empty in
  for i = 1 to 20_000 do
    m := Smap.add (string_of_int (i * 7919 mod 100_003)) i !m
  done;
  let h = Hashtbl.create 16 in
  Smap.iter (fun k v -> Hashtbl.replace h v k) !m;
  ignore (Sys.opaque_identity (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])));
  let b = Buffer.create 4096 in
  for i = 1 to 8_000 do
    Printf.bprintf b "resource_%d = \"%d\"\n" (i * 7919 mod 100_003) i
  done;
  let m =
    List.fold_left
      (fun m line ->
        match String.index_opt line '=' with
        | Some j -> Smap.add (String.sub line 0 j) j m
        | None -> m)
      Smap.empty
      (String.split_on_char '\n' (Buffer.contents b))
  in
  ignore (Sys.opaque_identity m)

(* The kernel's time in seconds: the fastest of three runs, each from a
   compacted heap, so a momentary stall does not count as a slow box. *)
let kernel_s () =
  let once () =
    Gc.compact ();
    let t0 = now () in
    kernel ();
    now () -. t0
  in
  let k = List.fold_left (fun acc _ -> Float.min acc (once ())) infinity [ 1; 2; 3 ] in
  Gc.compact ();
  k

type timed = {
  kernel : float;  (** the kernel's time just before the pass *)
  setup_wall : float;
  pass_wall : float;
  words : float;  (** minor words the pass allocated *)
  pass : Pass.t;
}

(* Each pass with its speed, from the kernel times around it. *)
let calibrate passes ~kernel_after =
  let afters = List.tl (List.map (fun t -> t.kernel) passes) @ [ kernel_after ] in
  List.map2 (fun t after -> (t, 2. *. reference_s /. (t.kernel +. after))) passes afters

(* Per-layer metrics of the traced pass [sp], in raw seconds;
   [untraced_wall] is the median untraced pass, in reference seconds,
   which the traced pass at [speed] is compared with. *)
let layer_metrics sp (p : Pass.t) ~speed ~untraced_wall =
  let self = Spans.layers sp in
  let get name = Option.value (Hashtbl.find_opt self name) ~default:(0., 0.) in
  let root = Spans.root_wall sp in
  let covered = List.fold_left (fun acc s -> acc +. fst (get s)) 0. timed_spans in
  let by_layer l =
    List.fold_left
      (fun (w, a) s -> if layer_of s = l then (w +. fst (get s), a +. snd (get s)) else (w, a))
      (0., 0.) timed_spans
  in
  let pct a b = if b = 0. then 0. else 100. *. a /. b in
  let lib name key = float_of_int (Spans.lib_counter sp ~name key) in
  let plan_changes = List.fold_left (fun acc k -> acc +. lib "plan" k) 0. [ "creates"; "updates"; "replaces"; "deletes" ] in
  let ratio a b = if b = 0. then 0. else a /. b in
  let values =
    List.map (fun s -> (s ^ "_s", fst (get s))) timed_spans
    @ List.map (fun l -> (l ^ ".share_pct", pct (fst (by_layer l)) root)) layers
    @ List.map (fun l -> (l ^ ".mwords", snd (by_layer l) /. 1e6)) layers
    @ List.map (fun (m, name, key) -> (m, lib name key)) lib_counters
    @ [
        ("plan.useful_ratio", ratio plan_changes (plan_changes +. lib "plan" "noops"));
        ("deploy.refresh_reads_per_change", ratio (lib "execute" "refresh_reads") (lib "execute" "applied"));
        ("trace_overhead_pct", pct ((root *. speed) -. untraced_wall) untraced_wall);
        ("trace_coverage_pct", pct covered root);
      ]
    @ p.Pass.counters
  in
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name values) ~default:0., unit))
    per_layer

(* [seconds] bounds the whole run, warm-up included: a timed pass starts
   only if one more pass of the average length so far still fits. *)
let run ?spans_path (w : Pass.workload) ~seconds ~trace ~min_passes =
  let checks = ref [] in
  let check (name, ok) = checks := (name, ok) :: !checks in
  let start = now () in
  (* warm-up: fills caches and, as a replay, reports the simulated
     results, which repeat exactly in every pass *)
  w.Pass.setup Spans.off;
  let warm = w.Pass.replay Spans.off in
  List.iter check warm.Pass.checks;
  let sim =
    match warm.Pass.sim with
    | Some s -> s
    | None ->
        check ("warm-up reports simulated results", false);
        { Pass.makespan = 0.; p50 = 0.; p99 = 0.; api_calls = 0; sim_ops = 1 }
  in
  let timed_pass () =
    let k = kernel_s () in
    let t0 = now () in
    w.Pass.setup Spans.off;
    let t1 = now () in
    let words0 = Gc.minor_words () in
    let p = w.Pass.run () in
    let words = Gc.minor_words () -. words0 in
    { kernel = k; setup_wall = t1 -. t0; pass_wall = p.Pass.wall; words; pass = p }
  in
  (* The peak heap is read after the warm-up and the first timed pass,
     a fixed point of the run, so it does not grow with the number of
     passes the time budget allows. *)
  let first = timed_pass () in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let rec loop acc n =
    let elapsed = now () -. start in
    if n >= min_passes && elapsed *. float_of_int (n + 2) /. float_of_int (n + 1) > seconds
    then List.rev acc
    else loop (timed_pass () :: acc) (n + 1)
  in
  let passes = loop [ first ] 1 in
  let kernel_after = kernel_s () in
  let passes = calibrate passes ~kernel_after in
  List.iter
    (fun (t, _) ->
      List.iter check t.pass.Pass.checks;
      check ("end state identical in every pass", t.pass.Pass.fingerprint = warm.Pass.fingerprint))
    passes;
  List.iter check (w.Pass.audit ());
  let ops = List.fold_left (fun acc (t, _) -> acc + t.pass.Pass.ops) 0 passes
  and failed = List.fold_left (fun acc (t, _) -> acc + t.pass.Pass.failed) 0 passes in
  let median_of f = Stats.median (List.map (fun (t, speed) -> f t speed) passes) in
  let ops_of t = float_of_int (max 1 t.pass.Pass.ops) in
  let cycles =
    List.concat_map (fun (t, speed) -> List.map (fun c -> c *. speed) t.pass.Pass.cycles) passes
  in
  let _, cycle_p50, cycle_p75 = Stats.quartiles cycles in
  let e2e =
    [
      ("setup_s", median_of (fun t speed -> t.setup_wall *. speed));
      ("wall_s", median_of (fun t speed -> t.pass_wall *. speed));
      ("throughput_ops_s", median_of (fun t speed -> ops_of t /. (t.pass_wall *. speed)));
      ("cycle_p50_ms", 1000. *. cycle_p50);
      ("cycle_p75_ms", 1000. *. cycle_p75);
      ("sim_makespan_s", sim.Pass.makespan);
      ("sim_request_p50_s", sim.Pass.p50);
      ("sim_request_p99_s", sim.Pass.p99);
      ("api_calls_per_op", float_of_int sim.Pass.api_calls /. float_of_int (max 1 sim.Pass.sim_ops));
      ("alloc_kwords_per_op", median_of (fun t _ -> t.words /. 1000. /. ops_of t));
      ("peak_heap_mb", peak_heap_mb);
    ]
  in
  let metrics =
    if not trace then List.map (fun (name, unit) -> (name, List.assoc name e2e, unit)) end_to_end
    else begin
      let before = kernel_s () in
      let sp = Spans.create () in
      w.Pass.setup sp;
      let p = w.Pass.replay sp in
      let after = kernel_s () in
      let speed = 2. *. reference_s /. (before +. after) in
      List.iter check p.Pass.checks;
      check ("traced pass ends in the same state", p.Pass.fingerprint = warm.Pass.fingerprint);
      check ("traced pass repeats the simulated results", p.Pass.sim = warm.Pass.sim);
      Option.iter (Spans.write_jsonl sp) spans_path;
      layer_metrics sp p ~speed ~untraced_wall:(List.assoc "wall_s" e2e)
    end
  in
  let failures = List.rev_map fst (List.filter (fun (_, ok) -> not ok) !checks) in
  {
    correct = failures = [];
    failures = List.sort_uniq compare failures;
    attempted = ops + failed;
    failed;
    passes = List.length passes;
    metrics;
    samples =
      [
        ("setup_s", List.map (fun (t, _) -> t.setup_wall) passes);
        ("pass_s", List.map (fun (t, _) -> t.pass_wall) passes);
        ("cycle_s", List.concat_map (fun (t, _) -> t.pass.Pass.cycles) passes);
        ("kernel_s", List.map (fun (t, _) -> t.kernel) passes @ [ kernel_after ]);
      ];
  }

let metrics_json r =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       r.metrics)

(* The last line of [run]'s output, for the tools that collect results:
   exactly these four keys. *)
let summary_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r);
    ]
