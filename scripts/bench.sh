#!/usr/bin/env bash
# Regenerates BENCH_PR4.json and BENCH_PR6.json. Run from the repository
# root:
#
#   ./scripts/bench.sh            # all
#   ./scripts/bench.sh pr4        # micro-benchmarks only
#   ./scripts/bench.sh pr6        # greenload throughput only
#   ./scripts/bench.sh pr9        # pipeline-parallel rendering only
#   ./scripts/bench.sh pr10       # distributed-tracing overhead only
#
# PR 4: re-runs the headline micro-benchmarks and records them against the
# frozen pre-PR baselines (measured once on the seed tree, commit f26a6a2,
# same machine class — they cannot be regenerated from a checkout containing
# the overhaul).
#
# PR 6: boots a live greensrv at 1 node and at 4 nodes, drives each with
# cmd/greenload, and records sweeps/sec plus p99 end-to-end latency.
#
# BENCH_PR7.json (bytecode VM vs tree-walking interpreter) is a frozen
# record: the tree-walker no longer runs outside the js package's tests.
#
# PR 9: runs the DOM-heavy SPA cell serially and stage-parallel (wall-clock
# pair), plus the modeled virtual-time numbers — frame-latency improvement
# from stage sharding, and GreenWeb-I energy at fixed QoS with and without
# the per-stage configuration dimension.
#
# PR 10: drives identical greenload runs against a greensrv with fleet
# tracing on and with -no-trace, and records the throughput delta (the
# tracing tax must stay under 3%) plus the traced run's per-phase breakdown.
set -euo pipefail
cd "$(dirname "$0")/.."

WHAT="${1:-all}"

BENCHTIME="${BENCHTIME:-3s}"
OUT="${OUT:-BENCH_PR4.json}"
OUT6="${OUT6:-BENCH_PR6.json}"
OUT9="${OUT9:-BENCH_PR9.json}"
OUT10="${OUT10:-BENCH_PR10.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# -------------------------------------------------------------------------
# PR 9: pipeline-parallel rendering (stage-split style/layout/paint).
# -------------------------------------------------------------------------
run_pr9() {
  local raw9 metrics9
  raw9="$(mktemp)"
  metrics9="$(mktemp)"
  echo "running staged-render benchmarks (benchtime=$BENCHTIME)..." >&2
  go test -run '^$' -bench 'BenchmarkExecuteCellWarmSPA' -benchmem \
    -benchtime="$BENCHTIME" ./internal/harness/ | tee -a "$raw9" >&2
  echo "computing modeled virtual-time metrics..." >&2
  GREENWEB_PR9_OUT="$metrics9" go test -run 'TestPR9Metrics' -count=1 ./internal/harness/ >&2

  python3 - "$raw9" "$metrics9" > "$OUT9" <<'PY'
import json, re, sys
rows = {}
for line in open(sys.argv[1]):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) B/op\s+([\d.]+) allocs/op', line)
    if not m:
        continue
    rows[m.group(1)] = {"ns_op": float(m.group(2)),
                        "bytes_op": float(m.group(3)),
                        "allocs_op": float(m.group(4))}
modeled = json.load(open(sys.argv[2]))
out = {
    "pr": 9,
    "title": "pipeline-parallel rendering: stage-split style/layout/paint on heterogeneous cores",
    "workload": ("warm ExecuteCell on the DOM-heavy SPA-Feed cell (220 components, "
                 "~2.2k nodes, state-driven rerenders), serial vs 4 stage cores; "
                 "serial mode is byte-identical to the pre-staging engine "
                 "(CI diffs report and fault sweep)"),
    "benchmarks": [dict(name=k, **v) for k, v in sorted(rows.items())],
    "modeled": modeled,
    "frame_latency_improvement": round(modeled["frame_latency_improvement"], 2),
    "stage_vector_energy_saving_pct": round(
        100.0 * (1 - modeled["energy_stage_vector_j"] / modeled["energy_uniform_j"]), 3),
}
json.dump(out, sys.stdout, indent=2)
sys.stdout.write("\n")
PY
  rm -f "$raw9" "$metrics9"
  echo "wrote $OUT9" >&2
}

# -------------------------------------------------------------------------
# PR 10: fleet-tracing overhead ablation (tracing on vs -no-trace).
# -------------------------------------------------------------------------
run_pr10() {
  local bin_srv bin_load pid addr=127.0.0.1:18109
  bin_srv="$(mktemp -u)" bin_load="$(mktemp -u)"
  go build -o "$bin_srv" ./cmd/greensrv
  go build -o "$bin_load" ./cmd/greenload

  # One load run against a fresh 2-node in-process server; extra server
  # flags (e.g. -no-trace) come after the report path. A discarded warmup
  # pass precedes the measured one so neither mode pays first-run costs
  # (page cache, asset parse) inside its measurement. The traced run
  # samples fleet traces so the report carries the phase breakdown.
  load_traced() {
    local report=$1 sample=$2; shift 2
    "$bin_srv" -addr "$addr" -nodes 2 -workers 2 -admit-queue 1024 \
      "$@" >/dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 50); do
      curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
      sleep 0.1
    done
    "$bin_load" -addr "http://$addr" \
      -sweeps "${WARM_SWEEPS:-20}" -concurrency "${LOAD_CONC:-12}" \
      -apps Todo,MSN -kinds Perf,GreenWeb-I -phase micro \
      -client-id bench-warm -json /dev/null >/dev/null 2>&1
    "$bin_load" -addr "http://$addr" \
      -sweeps "${LOAD_SWEEPS:-120}" -concurrency "${LOAD_CONC:-12}" \
      -apps Todo,MSN -kinds Perf,GreenWeb-I -phase micro \
      -client-id bench -trace-sample "$sample" -json "$report" >&2
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  }

  # Machine noise on shared runners dwarfs the tracing tax, so measure
  # interleaved best-of-N per mode rather than one pair.
  local reps="${BENCH_REPS:-3}" i files=()
  for i in $(seq 1 "$reps"); do
    local ron roff
    ron="$(mktemp)" roff="$(mktemp)"
    echo "rep $i/$reps: greenload vs traced greensrv..." >&2
    load_traced "$ron" 20
    echo "rep $i/$reps: greenload vs greensrv -no-trace..." >&2
    load_traced "$roff" 0 -no-trace
    files+=("$ron" "$roff")
  done

  python3 - "${files[@]}" > "$OUT10" <<'PY'
import json, sys
runs = [json.load(open(p)) for p in sys.argv[1:]]
ons, offs = runs[0::2], runs[1::2]
# Best-of-N throughput per mode; the best traced run also supplies the
# phase-breakdown quantiles.
on = max(ons, key=lambda r: r["sweeps_per_sec"])
off = max(offs, key=lambda r: r["sweeps_per_sec"])
def row(mode, r):
    out = {
        "mode": mode, "nodes": 2, "workers_per_node": 2,
        "sweeps": r["sweeps"], "concurrency": 12,
        "sweeps_per_sec": r["sweeps_per_sec"],
        "jobs_per_sec": r["jobs_per_sec"],
        "e2e_p50_ms": r["e2e_ms"]["p50"],
        "e2e_p99_ms": r["e2e_ms"]["p99"],
        "span_drops": r.get("span_drops", 0),
    }
    if r.get("trace_sampled"):
        out["trace_sampled"] = r["trace_sampled"]
        for phase in ("queue_ms", "execute_ms"):
            if r.get(phase):
                out[phase] = r[phase]
    return out
delta = 100.0 * (off["sweeps_per_sec"] - on["sweeps_per_sec"]) / off["sweeps_per_sec"]
out = {
    "pr": 10,
    "title": "fleet-wide distributed tracing, structured logging, worker health surface",
    "workload": ("greenload micro-phase sweeps (Todo,MSN x Perf,GreenWeb-I) against a "
                 "2-node greensrv, fleet tracing on (with 20 sampled fleet traces) vs "
                 "-no-trace; sweep bytes are identical either way (CI cmps them)"),
    "reps_per_mode": len(ons),
    "rows": [row("tracing", on), row("no-trace", off)],
    "tracing_overhead_pct": round(delta, 2),
    "overhead_budget_pct": 3.0,
    "within_budget": delta < 3.0,
}
json.dump(out, sys.stdout, indent=2)
sys.stdout.write("\n")
PY
  rm -f "${files[@]}" "$bin_srv" "$bin_load"
  echo "wrote $OUT10" >&2
}

if [ "$WHAT" = pr9 ]; then run_pr9; exit 0; fi
if [ "$WHAT" = pr10 ]; then run_pr10; exit 0; fi

# -------------------------------------------------------------------------
# PR 6: greenload throughput at 1 vs 4 nodes.
# -------------------------------------------------------------------------
run_pr6() {
  local bin_srv bin_load sdir pid addr=127.0.0.1:18099
  bin_srv="$(mktemp -u)" bin_load="$(mktemp -u)"
  go build -o "$bin_srv" ./cmd/greensrv
  go build -o "$bin_load" ./cmd/greenload

  # One load run against a fresh server at the given node count; emits the
  # greenload JSON report path.
  load_at() {
    local nodes=$1 report=$2
    sdir="$(mktemp -d)"
    "$bin_srv" -addr "$addr" -nodes "$nodes" -workers 2 -store "$sdir" \
      -admit-queue 1024 >/dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 50); do
      curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
      sleep 0.1
    done
    "$bin_load" -addr "http://$addr" \
      -sweeps "${LOAD_SWEEPS:-120}" -concurrency "${LOAD_CONC:-12}" \
      -apps Todo,MSN -kinds Perf,GreenWeb-I -phase micro \
      -client-id bench -wait-persisted -json "$report" >&2
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    rm -rf "$sdir"
  }

  local r1 r4
  r1="$(mktemp)" r4="$(mktemp)"
  echo "greenload vs 1-node greensrv..." >&2
  load_at 1 "$r1"
  echo "greenload vs 4-node greensrv..." >&2
  load_at 4 "$r4"

  python3 - "$r1" "$r4" > "$OUT6" <<'PY'
import json, sys
one, four = (json.load(open(p)) for p in sys.argv[1:3])
def row(nodes, r):
    return {
        "nodes": nodes, "workers_per_node": 2,
        "sweeps": r["sweeps"], "concurrency": 12,
        "sweeps_per_sec": r["sweeps_per_sec"],
        "jobs_per_sec": r["jobs_per_sec"],
        "e2e_p50_ms": r["e2e_ms"]["p50"],
        "e2e_p99_ms": r["e2e_ms"]["p99"],
        "submit_p99_ms": r["submit_ms"]["p99"],
        "rejections": r["rejections"],
    }
out = {
    "pr": 6,
    "title": "sharded multi-node fleet, durable sweep WAL, admission control",
    "workload": "greenload micro-phase sweeps (Todo,MSN x Perf,GreenWeb-I), -wait-persisted, WAL store on tmpfs-or-disk",
    "rows": [row(1, one), row(4, four)],
    "speedup_sweeps_per_sec": round(four["sweeps_per_sec"] / one["sweeps_per_sec"], 2),
}
json.dump(out, sys.stdout, indent=2)
sys.stdout.write("\n")
PY
  rm -f "$r1" "$r4" "$bin_srv" "$bin_load"
  echo "wrote $OUT6" >&2
}

if [ "$WHAT" = pr6 ]; then run_pr6; exit 0; fi

echo "running benchmarks (benchtime=$BENCHTIME)..." >&2
go test -run '^$' -bench 'BenchmarkCascadeLargestApp' -benchmem -benchtime="$BENCHTIME" ./internal/css/ | tee -a "$RAW" >&2
go test -run '^$' -bench 'BenchmarkSelect' -benchmem -benchtime="$BENCHTIME" ./internal/core/ | tee -a "$RAW" >&2
go test -run '^$' -bench 'BenchmarkExecuteCell' -benchmem -benchtime="$BENCHTIME" ./internal/harness/ | tee -a "$RAW" >&2

# Pre-PR baselines (seed tree, go1.24, linux/amd64).
declare -A BEFORE_NS=(
  [BenchmarkCascadeLargestApp]=89176
  [BenchmarkSelectSteadyState]=2222
  [BenchmarkSelectAfterFeedback]=3364
  [BenchmarkExecuteCellWarmFull]=1543287
)
declare -A BEFORE_B=(
  [BenchmarkCascadeLargestApp]=35952
  [BenchmarkSelectSteadyState]=2816
  [BenchmarkSelectAfterFeedback]=4135
  [BenchmarkExecuteCellWarmFull]=877513
)
declare -A BEFORE_ALLOCS=(
  [BenchmarkCascadeLargestApp]=675
  [BenchmarkSelectSteadyState]=63
  [BenchmarkSelectAfterFeedback]=106
  [BenchmarkExecuteCellWarmFull]=9699
)

{
  echo '{'
  echo '  "pr": 4,'
  echo '  "title": "parse-once asset cache, indexed CSS cascade, memoized DVFS sweep",'
  echo '  "before_commit": "f26a6a2",'
  echo '  "benchtime": "'"$BENCHTIME"'",'
  echo '  "benchmarks": ['
  first=1
  while read -r name _ ns _ bytes _ allocs _; do
    name="${name%-*}" # strip -GOMAXPROCS suffix
    [ "$first" = 1 ] || echo ','
    first=0
    bns="${BEFORE_NS[$name]:-null}"
    bb="${BEFORE_B[$name]:-null}"
    ba="${BEFORE_ALLOCS[$name]:-null}"
    if [ "$bns" != null ]; then
      # improvement = (before - after) / before, in percent
      imp=$(awk -v b="$bns" -v a="$ns" 'BEGIN{printf "%.1f", (b-a)/b*100}')
      speedup=$(awk -v b="$bns" -v a="$ns" 'BEGIN{printf "%.2f", b/a}')
    else
      imp=null speedup=null
    fi
    printf '    {"name": "%s", "before": {"ns_op": %s, "bytes_op": %s, "allocs_op": %s}, "after": {"ns_op": %s, "bytes_op": %s, "allocs_op": %s}, "improvement_pct": %s, "speedup": %s}' \
      "$name" "$bns" "$bb" "$ba" "$ns" "$bytes" "$allocs" "$imp" "$speedup"
  done < <(grep -E '^Benchmark' "$RAW")
  echo
  echo '  ]'
  echo '}'
} > "$OUT"

echo "wrote $OUT" >&2

if [ "$WHAT" != pr4 ]; then
  run_pr6
fi
