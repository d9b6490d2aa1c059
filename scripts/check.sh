#!/usr/bin/env bash
# Tier-1 gate: the typed-error lint, full build, full test suite, the
# quick experiment smokes under a wall-clock bound each, the structural
# gates, and the example programs as end-to-end smokes.
set -euo pipefail
cd "$(dirname "$0")/.."

# -- typed-error lint ------------------------------------------------
# lib/ reports failure through Cloudless_error (stage tag + location),
# never bare failwith.  New offenders must be argued into the
# allowlist, not snuck past it.  grep exits 1 when no file matches,
# which under pipefail would end the script, so the match tolerates it.
allowlist=scripts/failwith_allowlist.txt
offenders=$({ grep -rln 'failwith' lib/ --include='*.ml' --include='*.mli' || true; } | sort | while read -r f; do
  grep -qxF "$f" <(grep -v '^#' "$allowlist") || echo "$f"
done)
if [[ -n "$offenders" ]]; then
  echo "check.sh: bare failwith in lib/ outside $allowlist:" >&2
  echo "$offenders" >&2
  exit 1
fi

# Every failure that leaves its library is a Cloudless_error.Error, so
# a lib/ file declares no other exception unless it is listed, with
# its reason, in the exception allowlist.
exn_allowlist=scripts/exception_allowlist.txt
exn_decls=$({ grep -rnE '^[[:space:]]*exception[[:space:]]+[A-Z]' lib/ \
  --include='*.ml' --include='*.mli' || true; })
exn_offenders=$(while IFS=: read -r file line decl; do
  [[ -n "$file" ]] || continue
  module=$(basename "${file%.*}")
  name="${module^}.$(awk '{print $2}' <<<"$decl")"
  grep -qE "^${name/./\\.}[[:space:]]" "$exn_allowlist" || echo "$file:$line: $name"
done <<<"$exn_decls")
exn_count=$({ grep -c . <<<"$exn_offenders" || true; })
if (( exn_count > 0 )); then
  echo "check.sh: ${exn_count} exception declaration(s) in lib/ outside $exn_allowlist — raise a Cloudless_error.Error:" >&2
  echo "$exn_offenders" >&2
  exit 1
fi

dune build @all
dune runtest

# -- quick experiment smokes -----------------------------------------
# Each quick run asserts its experiment's claims on its own output and
# exits non-zero when one fails.  It writes BENCH_*_quick.json, never
# the committed files.
#   e2   every edit changes its source and plans work, and every scoped
#        refresh reads fewer rows than the full one
#   e11  the heap and list ready sets give identical makespans and
#        apply orders
#   e12  each pipeline stage matches its in-tree reference implementation
#   e13  at every sampled crash point the journaled engine leaves no
#        orphan, duplicate create or divergence, deterministically
#   e14  per-deployment admission beats the global lock on p99 with zero
#        lock waits; push drift detection is instant and reads >=10x
#        less than the scan baseline
#   e15  p99 and drift p50 stay flat as shards scale, drift routes across
#        shards, the digest is shard-count-invariant, and defer/reject
#        backpressure holds
#   e16  journaled applies match the bare one, which stays under its
#        minor-words-per-change budget
#   e17  the fleet converges after every chaos episode, no call passes an
#        open breaker, and unaffected tenants keep p99 within 2x calm
#   e18  a violating change stops at the canary and rolls back; a clean
#        one converges on the canary*growth^k schedule
# E14, E15, E17 and E18 also crash a fleet after write k, resume it and
# audit orphans, duplicate creates and the state digest, and E14, E15
# and E17 check that two runs export byte-identical metrics.
# Each run is timed from the built binary in ms.  The quick runs take
# 15-540 ms on a 2-core VM and are all small or simulated time, so a
# run above 5 s (E16, which times every pipeline stage: 10 s) is a
# hot-path or drive-loop regression.
bench=_build/default/bench/main.exe
for e in e2 e11 e12 e13 e14 e15 e16 e17 e18; do
  case $e in
    e16) budget_ms=10000 ;;
    *) budget_ms=5000 ;;
  esac
  start_ns=$(date +%s%N)
  "$bench" "$e" --quick
  ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
  if (( ms > budget_ms )); then
    echo "check.sh: $e --quick took ${ms} ms (budget ${budget_ms} ms)" >&2
    exit 1
  fi
done

# -- hot-path Addr.Map gate ------------------------------------------
# The dependency graph, the plan and the apply path run on interned
# int ids (Dag.t rows); none of them keys anything by address.  New
# Addr.Map uses in lib/graph, lib/plan or lib/deploy mean someone
# re-introduced address-keyed maps — argue it here before raising the
# baseline.  grep exits 1 when nothing matches, which under pipefail
# would stop the script, so the count tolerates it.
ADDR_MAP_BASELINE=0
addr_map_count=$({ grep -o 'Addr\.Map' lib/graph/*.ml lib/plan/*.ml lib/deploy/*.ml || true; } | wc -l)
if (( addr_map_count > ADDR_MAP_BASELINE )); then
  echo "check.sh: ${addr_map_count} Addr.Map uses in lib/graph+lib/plan+lib/deploy (baseline ${ADDR_MAP_BASELINE}) — keep the graph and the apply path on interned ids" >&2
  exit 1
fi

# -- single-domain gate ----------------------------------------------
# Every apply runs one plan against one simulated cloud, journal and
# metrics registry, all single-domain state.  A Domain or Atomic use in
# lib/ or bin/ means a parallel path is back: it must share that state
# safely and keep one cloud id per resource, so argue it here first.
DOMAIN_BASELINE=0
domain_count=$({ grep -rnE 'Domain\.|Atomic\.' lib/ bin/ --include='*.ml' --include='*.mli' || true; } | wc -l)
if (( domain_count > DOMAIN_BASELINE )); then
  echo "check.sh: ${domain_count} Domain/Atomic uses in lib/ or bin/ (baseline ${DOMAIN_BASELINE}) — apply through the one journaled Executor.apply path:" >&2
  grep -rnE 'Domain\.|Atomic\.' lib/ bin/ --include='*.ml' --include='*.mli' >&2 || true
  exit 1
fi

# -- streaming front-end gate ----------------------------------------
# The parser pulls tokens from Lexer.next_token with one token of
# lookahead; Lexer.tokenize (the whole-file token list) is for tests
# only, because a token list alive for a whole parse is promoted to
# the major heap token by token.  Token dispatch is a pattern match,
# not an assoc-list lookup with polymorphic equality.
frontend_offenders=$(grep -rnE 'Lexer\.tokenize|List\.assoc_opt \(peek' lib/ \
  --include='*.ml' --include='*.mli' | grep -v '^lib/hcl/lexer\.ml:' || true)
if [[ -n "$frontend_offenders" ]]; then
  echo "check.sh: eager token list or assoc-list token dispatch in lib/ — pull tokens with Lexer.next_token:" >&2
  echo "$frontend_offenders" >&2
  exit 1
fi

# -- literal state and journal codec gate ----------------------------
# A state file is literal data.  State.to_string and State.of_string go
# through Codec's buffer writer and literal reader, which build no
# token stream, syntax tree or evaluator scope; the parser, evaluator,
# AST and printer are for configurations.  Codec.expr_to_value, the
# evaluator-backed literal reader, stays deleted.
state_offenders=$(grep -nE '(Parser|Eval|Ast|Printer)\.' lib/state/state.ml || true)
if [[ -n "$state_offenders" ]]; then
  echo "check.sh: lib/state/state.ml names the parser, evaluator, AST or printer — read and write state through Codec:" >&2
  echo "$state_offenders" >&2
  exit 1
fi
literal_eval=$(grep -rn 'expr_to_value' lib/ --include='*.ml' --include='*.mli' || true)
if [[ -n "$literal_eval" ]]; then
  echo "check.sh: expr_to_value is back in lib/ — read literal text with Codec.read_value or Codec.fold_blocks:" >&2
  echo "$literal_eval" >&2
  exit 1
fi
# The journal is literal data too: one object per line, written with
# Codec's printers and read with Codec.read_value.  A JSON envelope
# (Trace's reader, escaper or float printer) or an escaper of its own
# would be a second codec with its own escaping rules.
journal_offenders=$(grep -nE 'Trace\.|escape' lib/state/journal.ml || true)
if [[ -n "$journal_offenders" ]]; then
  echo "check.sh: lib/state/journal.ml names Trace or defines an escaper — write and read entries through Codec:" >&2
  echo "$journal_offenders" >&2
  exit 1
fi

# -- compile-once gate -----------------------------------------------
# The control plane parses config text only in Shard.parse_config, the
# content-keyed table every shard shares: a pass retries a handful of
# revisions thousands of times, so a second, uncached parse path would
# quietly bring the per-grant parse back.
cached_parse=$(grep -n '^let parse_config ' lib/controlplane/shard.ml | cut -d: -f1 || true)
if [[ -z "$cached_parse" ]]; then
  echo "check.sh: Shard.parse_config (the cached config parse) is gone" >&2
  exit 1
fi
parse_offenders=$(grep -rnE 'Config\.parse([^_[:alnum:]]|$)' lib/controlplane/ \
  --include='*.ml' --include='*.mli' \
  | awk -F: -v def="$cached_parse" \
      '!($1 == "lib/controlplane/shard.ml" && $2 > def && $2 <= def + 8)' || true)
if [[ -n "$parse_offenders" ]]; then
  echo "check.sh: config parse in lib/controlplane outside Shard.parse_config — go through the cached parse:" >&2
  echo "$parse_offenders" >&2
  exit 1
fi
# The same table keeps each revision compiled: the control plane
# instantiates Eval.compile's result per state, so an Eval.expand
# there would compile the revision again on every grant.  The
# one-pass expander Eval.Reference is the tests' oracle, not a second
# expander for lib/.  grep exits 1 when nothing matches, so each count
# tolerates it.
expand_count=$({ grep -rn --include='*.ml' 'Eval\.expand' lib/controlplane/ || true; } | wc -l)
reference_count=$({ grep -rn --include='*.ml' --include='*.mli' 'Eval\.Reference' lib/ \
  | grep -v '^lib/hcl/eval\.ml:' || true; } | wc -l)
if (( expand_count > 0 || reference_count > 0 )); then
  echo "check.sh: ${expand_count} Eval.expand use(s) in lib/controlplane and ${reference_count} Eval.Reference use(s) in lib/ outside lib/hcl/eval.ml — instantiate the revision Shard.parse_config compiled, and leave the oracle to the tests:" >&2
  grep -rn --include='*.ml' 'Eval\.expand' lib/controlplane/ >&2 || true
  grep -rn --include='*.ml' --include='*.mli' 'Eval\.Reference' lib/ | grep -v '^lib/hcl/eval\.ml:' >&2 || true
  exit 1
fi

# -- one plan walker -------------------------------------------------
# Every apply path reaches the cloud's write API through the plan
# walker (lib/deploy/walker.ml), so it alone writes a run's journal
# intents and outcomes: a second op machine would have to keep every
# journal rule in step with it.  lib/state defines the entries.
walker=lib/deploy/walker.ml
journal_writers=$(grep -rnE '\(Journal\.(Intent|Outcome|Run_started)' lib/ \
  --include='*.ml' --include='*.mli' | grep -v -e "^$walker:" -e '^lib/state/' || true)
if [[ -n "$journal_writers" ]]; then
  echo "check.sh: journal intent/outcome/run-start written outside $walker — go through the walker:" >&2
  echo "$journal_writers" >&2
  exit 1
fi

# -- history-independent grant gates ---------------------------------
# A grant costs O(its plan), however long the deployment's journal has
# grown: the walker seeds op ids from Journal.last_op, which the
# journal keeps as it grows, never from a scan of Journal.entries (the
# resume paths in fleet.ml, rollout.ml and lifecycle.ml replay the
# journal and may scan it).  A per-grant file that is gone fails the
# gate rather than silently leaving it.
per_grant="$walker lib/deploy/executor.ml lib/controlplane/shard.ml"
for f in $per_grant; do
  if [[ ! -f $f ]]; then
    echo "check.sh: per-grant file $f is gone — point the journal-scan gate at its successor" >&2
    exit 1
  fi
done
# shellcheck disable=SC2086
journal_scans=$(grep -nE 'Journal\.entries' $per_grant || true)
if [[ -n "$journal_scans" ]]; then
  echo "check.sh: journal scan on a per-grant path — seed op ids from Journal.last_op:" >&2
  echo "$journal_scans" >&2
  exit 1
fi

# -- one dependency graph --------------------------------------------
# Dag.build is the one graph builder: Plan.exec_graph, Dag.of_instances
# and every analysis (Kahn rounds, critical path, priorities, impact
# scope, DOT) share its flat rows.  A second Kahn kernel, row sort or
# edge buffer outside lib/graph/dag.ml, or a graph built edge by edge,
# would be a second graph with its own ordering rules.
graph_offenders=$(grep -rnE \
  '(let|and) +(rec +)?(rounds_kernel|sort_slice)([^_[:alnum:]]|$)|module +Ivec([^_[:alnum:]]|$)|Dag\.add_(node|edge)|Plan\.execution_graph' \
  lib/ --include='*.ml' --include='*.mli' | grep -v '^lib/graph/dag\.ml:' || true)
if [[ -n "$graph_offenders" ]]; then
  echo "check.sh: a second graph builder or Kahn kernel outside lib/graph/dag.ml — build with Dag.build:" >&2
  echo "$graph_offenders" >&2
  exit 1
fi

# -- one refresh rule ------------------------------------------------
# Which rows an apply re-reads is the engine's refresh mode, and for
# the cloudless preset Executor.apply derives it from the plan
# (Plan.refresh_scope).  lib/core (the CLI and Lifecycle) hands the
# presets through as they are: an override there would give the CLI,
# Lifecycle and the benchmarks' replays different refresh rows.
refresh_overrides=$(grep -nE 'Executor\.refresh([^_[:alnum:]]|$)|Refresh_(none|full|scoped)' \
  lib/core/*.ml || true)
if [[ -n "$refresh_overrides" ]]; then
  echo "check.sh: refresh mode overridden in lib/core — use the engine presets as they are:" >&2
  echo "$refresh_overrides" >&2
  exit 1
fi

# -- restore keeps recorded ids --------------------------------------
# The CLI rebuilds its simulated cloud from the state file with
# Cloud.restore, under each row's recorded cloud id.  Minting fresh
# ids there (Cloud.create_oob) and rewriting the rows' references
# (restore_attrs) renumbers the deployment on every apply, rewrites
# every row of the state file and prints ids in apply that plan never
# printed.
restore_offenders=$(grep -rnE 'Cloud\.create_oob|restore_attrs' lib/core/ \
  --include='*.ml' --include='*.mli' || true)
if [[ -n "$restore_offenders" ]]; then
  echo "check.sh: fresh ids or rewritten references on the CLI's restore path — restore rows under their recorded ids with Cloud.restore:" >&2
  echo "$restore_offenders" >&2
  exit 1
fi

# -- restore stays lazy ----------------------------------------------
# State.of_string leaves each row's attributes as text, read on the
# row's first read.  Session.cloud_from_state registers the rows with
# Cloud.restore unread: the cloud reads a resource's attributes on its
# first read and checks id, arn and region on the row's text.  A read
# of the attribute map there (State.attrs, Recorded.map or .find)
# would read every row of the state on every apply, destroy and
# import.  The function's body runs from its [let] to the next
# top-level [let].
restore_body=$(awk '/^let cloud_from_state/ { on = 1; print FILENAME ":" FNR ": " $0; next }
  on && /^let / { on = 0 }
  on { print FILENAME ":" FNR ": " $0 }' lib/core/session.ml)
if [[ -z "$restore_body" ]]; then
  echo "check.sh: Session.cloud_from_state is gone — point the lazy-restore gate at its successor" >&2
  exit 1
fi
restore_reads=$(grep -E 'State\.attrs|Recorded\.(map|find)' <<<"$restore_body" || true)
if [[ -n "$restore_reads" ]]; then
  echo "check.sh: Session.cloud_from_state reads rows' attribute maps — hand Cloud.restore the recorded attributes unread:" >&2
  echo "$restore_reads" >&2
  exit 1
fi

# -- one write pacer per fleet ---------------------------------------
# A client-side pacer mirrors the write budget of the cloud it talks
# to and comes from Cloud.write_pacer: Executor.apply takes one per
# apply and Fleet.create one that every shard books from.  A budget
# written into an engine preset can disagree with the provider's, and
# a second bucket in the control plane splits one provider budget
# between pacers that cannot see each other's writes.
pacer_offenders=$({ grep -rn 'pacing_budget' lib/ bin/ bench/ test/ || true; }
  { grep -rnE --include='*.ml' 'Rate_limiter\.create|Cloud\.write_pacer' \
      lib/controlplane/ | grep -v '^lib/controlplane/fleet\.ml:' || true; })
if [[ -n "$pacer_offenders" ]]; then
  echo "check.sh: a stated pacing budget, or a write pacer built in lib/controlplane outside fleet.ml — take Cloud.write_pacer once, in Fleet.create:" >&2
  echo "$pacer_offenders" >&2
  exit 1
fi

# -- one place per service setting -----------------------------------
# A serve run is configured by its scenario file alone.  Each removed
# serve/rollout flag only re-set a scenario key, past the grammar's
# range checks.  Shard.service_config keeps only what a preset leaves
# open; lock granularity, drift intake, reconcile scope, refresh and
# parallelism follow from the preset, and the rest are constants.
# grep exits 1 when nothing matches, so each count tolerates it.
serve_flags='info \[[^]]*"(ticks|shards|queue-bound|admission|episodes|breaker|waves)"'
preset_fields='granularity|drift_mode|scoped_reconcile|refresh_before_apply|policy_src|defer_delay|sname'
setting_count=$(( $({ grep -cE "$serve_flags" bin/cloudless_cli.ml || true; }) \
  + $({ grep -cwE "$preset_fields" lib/controlplane/shard.mli || true; }) ))
if (( setting_count > 0 )); then
  echo "check.sh: ${setting_count} service setting(s) outside the scenario file — set it as a scenario key, or derive it from the preset:" >&2
  grep -nE "$serve_flags" bin/cloudless_cli.ml >&2 || true
  grep -nwE "$preset_fields" lib/controlplane/shard.mli >&2 || true
  exit 1
fi

# -- one unit of work ------------------------------------------------
# A shard runs requests, rollbacks, reconciles and scan sweeps through
# one runner: one lock grant, one walk, one park site, one span.  A
# second Lock_manager.acquire or an exec_* path would be a copy of the
# runner's steps that drifts apart from it.  A unit of work survives
# only a typed Cloudless_error.Error, recorded on its own span; a
# Printexc rendering in lib/controlplane means some handler is
# swallowing exceptions that are bugs.  grep exits 1 when nothing
# matches, so each count tolerates it.
shard=lib/controlplane/shard.ml
acquire_count=$({ grep -o 'Lock_manager\.acquire' "$shard" || true; } | wc -l)
exec_count=$({ grep -oE 'exec_(request|reconcile|rollback|scan)' "$shard" || true; } | wc -l)
printexc_count=$({ grep -rn 'Printexc' lib/controlplane/ || true; } | wc -l)
if (( acquire_count > 1 || exec_count > 0 || printexc_count > 0 )); then
  echo "check.sh: ${acquire_count} Lock_manager.acquire (at most 1) and ${exec_count} exec_* name(s) in $shard, ${printexc_count} Printexc use(s) in lib/controlplane — run every unit of work through the one runner and fail it only on a typed error:" >&2
  grep -nE 'Lock_manager\.acquire|exec_(request|reconcile|rollback|scan)' "$shard" >&2 || true
  grep -rn 'Printexc' lib/controlplane/ >&2 || true
  exit 1
fi

# -- metric names resolved once --------------------------------------
# A shard writes its metrics through handles, each named once: the
# shard's own (Metrics.scope_handle) and a tenant's (Metrics.handle
# ~label) on the first write of the shard and the deployment.  A name
# built with ^ in the shard is built and hashed again on every write,
# and for api_calls.<tenant> that is every API call.  grep exits 1
# when nothing matches, so the count tolerates it.
name_builds=$({ grep -cF ' ^ ' "$shard" || true; })
if (( name_builds > 0 )); then
  echo "check.sh: ${name_builds} metric name(s) built with ^ in $shard — name the metric once, as a Metrics handle of the shard or the deployment:" >&2
  grep -nF ' ^ ' "$shard" >&2 || true
  exit 1
fi

# -- parked work waits on its cell -----------------------------------
# A unit parked behind an open breaker cell waits on that cell's wait
# list and wakes on the cell's cooldown timer or its close.  Timing a
# re-admission from Breaker.next_probe_at, the earliest probe of any
# Open cell, brings back per-unit polling: re-admissions that only
# fast-fail and park again.
probe_polls=$(grep -rn 'Breaker\.next_probe_at' lib/controlplane/ \
  --include='*.ml' --include='*.mli' || true)
if [[ -n "$probe_polls" ]]; then
  echo "check.sh: Breaker.next_probe_at in lib/controlplane — park the unit on its cell's wait list instead of timing its re-admission:" >&2
  echo "$probe_polls" >&2
  exit 1
fi

# -- one owner index -------------------------------------------------
# The fleet keeps one cloud id -> owner index, re-indexing only the
# deployments whose state changed since it was last read; drift
# routing and the state digest both read it.  A State.find_by_cloud_id
# in the control plane is a per-deployment probe: called across the
# fleet it costs O(deployments) per lookup and rebuilds each changed
# state's reverse index.
owner_probes=$(grep -rn 'State\.find_by_cloud_id' lib/controlplane/ \
  --include='*.ml' --include='*.mli' || true)
if [[ -n "$owner_probes" ]]; then
  echo "check.sh: State.find_by_cloud_id in lib/controlplane — look owners up through the fleet's owner index (Fleet.owning_deployment):" >&2
  echo "$owner_probes" >&2
  exit 1
fi

# -- one checker per object -----------------------------------------
# State.of_string has two readers.  The layout reader leaves a row's
# attributes object unread once Codec.check_object passes it; the
# general reader reads every value, with the diagnostics.  A checking
# twin of the value reader (skip_value) or an object the general
# reader leaves unread (Unread, fold_blocks ~unread) would be a third
# path over one grammar, whose cursor moves and errors must be kept in
# step with the reader's.  grep exits 1 when nothing matches, so the
# count tolerates it.
twin_pattern='skip_value|Unread|~unread'
twin_count=$({ grep -nE "$twin_pattern" lib/hcl/codec.ml lib/state/state.ml || true; } | wc -l)
if (( twin_count > 0 )); then
  echo "check.sh: ${twin_count} checking-twin name(s) in lib/hcl/codec.ml or lib/state/state.ml — leave unread only what Codec.check_object passes, and read any other text whole:" >&2
  grep -nE "$twin_pattern" lib/hcl/codec.ml lib/state/state.ml >&2 || true
  exit 1
fi

# -- one block expansion --------------------------------------------
# Eval expands a resource and a module call through one count/for_each
# evaluator into one shape type, and a resource instance meets its
# recorded row in one place, chosen by the row: a row still unread on
# its text is checked on the text, any other has the configuration
# merged in.  A caller-set switch for that choice (verify_rows), a
# second shape type for module calls (Mod_single) or a second copy of
# the count checks would let validate and plan expand one state two
# ways.  grep exits 1 when nothing matches, so each count tolerates it.
expansion_switches=$({ grep -rnE 'verify_rows|Mod_single' lib/ bench/ test/ || true; } | wc -l)
count_checks=$({ grep -o '"negative count' lib/hcl/eval.ml || true; } | wc -l)
if (( expansion_switches > 0 || count_checks > 1 )); then
  echo "check.sh: ${expansion_switches} verify_rows/Mod_single use(s) in lib/, bench/ or test/ and ${count_checks} count check(s) in lib/hcl/eval.ml (at most 1) — expand every block through Eval's one count/for_each evaluator, and let the row choose how an instance meets it:" >&2
  grep -rnE 'verify_rows|Mod_single' lib/ bench/ test/ >&2 || true
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
