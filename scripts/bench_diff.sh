#!/usr/bin/env bash
# Compare two bench result files stage by stage:
#
#   scripts/bench_diff.sh OLD.json NEW.json
#
# Understands five schemas, dispatched on the "experiment" field:
#   - e16_raw_speed (BENCH_raw.json):     per-fleet-size pipeline stages,
#     journal and allocation headlines, domain-sweep wall times
#   - e14_service   (BENCH_service.json): per-tenant-count cloudless vs
#     baseline legs and their p99/reads ratios
#   - e15_fleet     (BENCH_fleet.json):   per-shard-count legs, the
#     1024-tenant leg, crash and backpressure headlines
#   - e17_soak      (BENCH_soak.json):    per-episode convergence
#     checkpoints, breaker/parking/fault headlines, crash leg
#   - e18_wave      (BENCH_wave.json):    blast-radius and gating-cost
#     headlines for the bad change, clean-rollout wave schedule,
#     crash-mid-rollout resume leg
#
# Stages, samples, and keys present in only one file are reported as
# one-sided rather than failing, so a trajectory file from before a
# schema extension still diffs against a fresh run.  Exits 0 always —
# it reports, the check.sh gates decide.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 OLD.json NEW.json" >&2
  exit 2
fi

python3 - "$1" "$2" <<'PY'
import json, sys

old_path, new_path = sys.argv[1], sys.argv[2]
old = json.load(open(old_path))
new = json.load(open(new_path))

def fmt_delta(o, n, unit=""):
    if o is None and n is None:
        return "      -"
    if o is None:
        return f"{n:9.3f}{unit} (new only)"
    if n is None:
        return f"{o:9.3f}{unit} (old only)"
    d = n - o
    pct = (100.0 * d / o) if o else 0.0
    return f"{n:9.3f}{unit} ({pct:+6.1f}%)"

def diff_keyed(olds, news, key, fields):
    """Diff two sample lists joined on `key`; one-sided rows tolerated."""
    old_by = {s[key]: s for s in olds}
    new_by = {s[key]: s for s in news}
    for k in sorted(set(old_by) | set(new_by)):
        o, n = old_by.get(k, {}), new_by.get(k, {})
        side = "" if (o and n) else ("   (new only)" if n else "   (old only)")
        print(f"{key}={k}{side}")
        for f, unit in fields:
            ov, nv = o.get(f), n.get(f)
            if ov is None and nv is None:
                continue
            print(f"  {f:<22} {fmt_delta(ov, nv, unit)}")
        print()

def diff_flat(o, n, fields, title):
    rows = [(f, unit) for f, unit in fields
            if o.get(f) is not None or n.get(f) is not None]
    if not rows:
        return
    print(title)
    for f, unit in rows:
        print(f"  {f:<22} {fmt_delta(o.get(f), n.get(f), unit)}")
    print()

exp_old = old.get("experiment", "e16_raw_speed")
exp_new = new.get("experiment", "e16_raw_speed")
print(f"old: {old_path} ({exp_old})\nnew: {new_path} ({exp_new})\n")
if exp_old != exp_new:
    print("schemas differ; nothing comparable")
    sys.exit(0)

if exp_new == "e14_service":
    flat_old, flat_new = [], []
    for doc, flat in [(old, flat_old), (new, flat_new)]:
        for s in doc.get("samples", []):
            row = {"tenants": s["tenants"],
                   "p99_ratio": s.get("p99_ratio"),
                   "reads_ratio": s.get("reads_ratio")}
            for leg in ("cloudless", "baseline"):
                for f in ("p50", "p99", "drift_p50", "mgmt_reads", "lock_waits"):
                    v = s.get(leg, {}).get(f)
                    if v is not None:
                        row[f"{leg}_{f}"] = float(v)
            flat.append(row)
    fields = [(f"{leg}_{f}", "") for leg in ("cloudless", "baseline")
              for f in ("p50", "p99", "drift_p50", "mgmt_reads", "lock_waits")]
    fields += [("p99_ratio", "x"), ("reads_ratio", "x")]
    diff_keyed(flat_old, flat_new, "tenants", fields)
    diff_flat(old.get("crash", {}), new.get("crash", {}),
              [("orphans", ""), ("dup_creates", ""), ("managed", "")],
              "crash leg")
elif exp_new == "e15_fleet":
    fields = [(f, "") for f in
              ("p50", "p99", "makespan", "drift_p50", "drift_max",
               "mgmt_reads", "api_calls", "cross_shard_routed")]
    diff_keyed(old.get("shard_sweep", []), new.get("shard_sweep", []),
               "shards", fields)
    diff_flat(old.get("big", {}), new.get("big", {}), fields,
              "1024-tenant leg")
    diff_flat(old.get("crash", {}), new.get("crash", {}),
              [("orphans", ""), ("dup_creates", ""), ("managed", "")],
              "crash leg")
    diff_flat(old.get("backpressure", {}), new.get("backpressure", {}),
              [("deferred", ""), ("rejected", ""), ("rebalance_moves", "")],
              "backpressure leg")
elif exp_new == "e17_soak":
    diff_keyed(old.get("checkpoints", []), new.get("checkpoints", []),
               "episode",
               [("at", "s"), ("managed", ""), ("parked", ""),
                ("open_cells", "")])
    diff_flat(old, new,
              [("episode_faults", ""), ("requests_done", ""),
               ("requests_parked", ""), ("reconciles_parked", ""),
               ("degraded_entries", "")],
              "soak headlines")
    diff_flat(old.get("breaker", {}), new.get("breaker", {}),
              [("opened", ""), ("fast_fails", ""), ("violations", "")],
              "breaker")
    diff_flat(old.get("unaffected", {}), new.get("unaffected", {}),
              [("calm_p99", "s"), ("worst_p99", "s")],
              "unaffected tenants")
    diff_flat(old.get("crash", {}), new.get("crash", {}),
              [("orphans", ""), ("dup_creates", ""), ("managed", "")],
              "crash leg")
elif exp_new == "e18_wave":
    diff_flat(old.get("bad_change", {}), new.get("bad_change", {}),
              [("wave1_size", ""), ("tenants_reached_gated", ""),
               ("tenants_reached_naive", ""),
               ("residual_violating_gated", ""),
               ("residual_violating_naive", ""),
               ("rollback_latency_s", "s"), ("gated_mgmt_calls", ""),
               ("gate_checks", ""), ("gated_api_calls", ""),
               ("naive_api_calls", "")],
              "bad change (blast radius)")
    diff_flat(old.get("clean_change", {}), new.get("clean_change", {}),
              [("committed_tenants", ""), ("waves", ""),
               ("expected_waves", ""), ("rollbacks", ""),
               ("violations", "")],
              "clean change")
    diff_flat(old.get("crash", {}), new.get("crash", {}),
              [("crash_after", ""), ("resumed_from_wave", ""),
               ("orphans", ""), ("dup_creates", "")],
              "crash leg")
else:
    stages = ["eval", "intern", "plan", "dag", "execute", "journal", "group"]
    old_by_n = {s["n"]: s for s in old.get("samples", [])}
    for s in new.get("samples", []):
        n = s["n"]
        o = old_by_n.get(n)
        print(f"n={n}")
        if o is None:
            print("  (no matching size in old file)")
            continue
        for st in stages:
            k = f"{st}_s"
            if k not in s and k not in (o or {}):
                continue
            print(f"  {st:<8} wall {fmt_delta(o.get(k), s.get(k), 's')}"
                  f"   minor {fmt_delta(o.get(st + '_minor_mwords'), s.get(st + '_minor_mwords'), 'MW')}")
        for k, unit in [("journal_us_per_change", "us"),
                        ("group_us_per_change", "us"),
                        ("exec_words_per_change", "w")]:
            if k in s or k in o:
                print(f"  {k:<22} {fmt_delta(o.get(k), s.get(k), unit)}")
        print()

    def dom_wall(doc):
        runs = doc.get("domain_leg", {}).get("runs", [])
        return {r["domains"]: r["wall_s"] for r in runs}

    ow, nw = dom_wall(old), dom_wall(new)
    if ow or nw:
        print("domain leg")
        for d in sorted(set(ow) | set(nw)):
            print(f"  domains={d:<3} wall {fmt_delta(ow.get(d), nw.get(d), 's')}")
PY
