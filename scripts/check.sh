#!/usr/bin/env bash
# Tier-1 gate: full build, full test suite, the engine-scale smoke
# runs (quick sweeps; they write BENCH_*_quick.json, never the
# committed trajectory files), the typed-error lint, and the example
# programs as end-to-end smokes.  The E12 smoke gets a wall-clock
# budget: a reintroduced quadratic scan in the config→plan front half
# blows far past it and fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# -- typed-error lint ------------------------------------------------
# lib/ reports failure through Cloudless_error (stage tag + location),
# never bare failwith.  New offenders must be argued into the
# allowlist, not snuck past it.
allowlist=scripts/failwith_allowlist.txt
offenders=$(grep -rln 'failwith' lib/ --include='*.ml' --include='*.mli' | sort | while read -r f; do
  grep -qxF "$f" <(grep -v '^#' "$allowlist") || echo "$f"
done)
if [[ -n "$offenders" ]]; then
  echo "check.sh: bare failwith in lib/ outside $allowlist:" >&2
  echo "$offenders" >&2
  exit 1
fi

dune build @all
dune runtest
dune exec bench/main.exe -- e11 --quick

E12_BUDGET_S=120
SECONDS=0
dune exec bench/main.exe -- e12 --quick
if (( SECONDS > E12_BUDGET_S )); then
  echo "check.sh: e12 --quick took ${SECONDS}s (budget ${E12_BUDGET_S}s)" >&2
  exit 1
fi

# Kill-anywhere crash sweep: the quick run fails hard if the journaled
# engine leaves any orphan/duplicate/divergence or loses determinism.
dune exec bench/main.exe -- e13 --quick

# Multi-tenant service load on a one-shard fleet: the quick run
# self-asserts the control plane's claims (per-deployment admission
# beats the global lock on p99 with zero lock waits, instant push drift
# detection, >=10x fewer management reads than the scan baseline,
# crash-resume with zero orphans, byte-deterministic metrics).
# Budgeted: the whole sweep is simulated time, so a wall-clock blowout
# means an event-loop regression.
E14_BUDGET_S=60
SECONDS=0
dune exec bench/main.exe -- e14 --quick
if (( SECONDS > E14_BUDGET_S )); then
  echo "check.sh: e14 --quick took ${SECONDS}s (budget ${E14_BUDGET_S}s)" >&2
  exit 1
fi

# Multi-shard fleet: the quick run self-asserts the E15 claims (p99
# and drift p50 flat as shards scale, push-based drift within one
# period, cross-shard drift routing, shard-count-invariant state
# digest, crash-resume at shard granularity, defer/reject
# backpressure) and checks metrics byte-determinism at --shards
# {1,2,4}.  Budgeted: the
# sweep is simulated time, so a wall-clock blowout means a fleet
# drive-loop regression.
E15_BUDGET_S=60
SECONDS=0
dune exec bench/main.exe -- e15 --quick
if (( SECONDS > E15_BUDGET_S )); then
  echo "check.sh: e15 --quick took ${SECONDS}s (budget ${E15_BUDGET_S}s)" >&2
  exit 1
fi

# Raw-speed core: per-stage pipeline timings, WAL + group-commit
# journal overhead, and the byte-identical --domains {1,2,4,0} digest
# assertion (the bench itself asserts; a digest mismatch or failed
# apply exits non-zero).  The bench also gates allocation: the bare
# apply must stay under its minor-words-per-change budget, so a
# reintroduced per-change tree-path copy or closure pileup fails here
# even when wall time hides it.  Budgeted like E12: the quick sweep is
# small, so a blowout means a hot-path regression in
# eval/intern/plan/dag/execute.
E16_BUDGET_S=60
SECONDS=0
dune exec bench/main.exe -- e16 --quick
if (( SECONDS > E16_BUDGET_S )); then
  echo "check.sh: e16 --quick took ${SECONDS}s (budget ${E16_BUDGET_S}s)" >&2
  exit 1
fi

# Chaos soak: the quick run drives the full 2-simulated-hour episode
# schedule (outage, error/throttle storms, spot waves, quota cut) on a
# shrunk fleet and self-asserts the E17 claims (convergence after
# every episode, zero calls through an open breaker, mid-outage
# crash-resume with zero orphans/duplicates, unaffected-tenant p99
# within 2x calm, chaos metrics determinism).  Budgeted: all simulated
# time, so a wall-clock blowout means the degraded-mode machinery is
# busy-spinning.
E17_BUDGET_S=60
SECONDS=0
dune exec bench/main.exe -- e17 --quick
if (( SECONDS > E17_BUDGET_S )); then
  echo "check.sh: e17 --quick took ${SECONDS}s (budget ${E17_BUDGET_S}s)" >&2
  exit 1
fi

# Bulk-change waves: the quick run self-asserts the E18 claims (a
# policy-violating change stops at the canary wave and is rolled back
# to zero residual violations while the naive baseline taints the
# whole fleet, a clean change converges on the canary*growth^k
# schedule, and a crash between wave commits resumes from the journal
# to the committed-wave boundary with zero orphans/duplicates and an
# unchanged state digest).  Budgeted: all simulated time, so a
# wall-clock blowout means the rollout driver is busy-polling.
E18_BUDGET_S=60
SECONDS=0
dune exec bench/main.exe -- e18 --quick
if (( SECONDS > E18_BUDGET_S )); then
  echo "check.sh: e18 --quick took ${SECONDS}s (budget ${E18_BUDGET_S}s)" >&2
  exit 1
fi

# -- hot-path Addr.Map gate ------------------------------------------
# The plan/apply hot path runs on interned int ids (Plan.exec_graph);
# Addr.Map belongs only to the Dag-returning analysis/oracle side
# (Plan.execution_graph, the Reference modules).  New Addr.Map uses in
# lib/plan or lib/deploy mean someone re-introduced address-keyed maps
# into the apply path — argue it here before raising the baseline.
ADDR_MAP_BASELINE=9
addr_map_count=$(grep -o 'Addr\.Map' lib/plan/*.ml lib/deploy/*.ml | wc -l)
if (( addr_map_count > ADDR_MAP_BASELINE )); then
  echo "check.sh: ${addr_map_count} Addr.Map uses in lib/plan+lib/deploy (baseline ${ADDR_MAP_BASELINE}) — keep the hot path on interned ids" >&2
  exit 1
fi

# -- example smokes --------------------------------------------------
# Every example must run to completion: they are the executable
# documentation for the lifecycle facade and the EDSL.
for ex in quickstart lifecycle autoscaling import_refactor debugging pulumi_style; do
  echo "== examples/$ex"
  dune exec "examples/$ex.exe" > /dev/null
done
echo "check.sh: all gates passed"
