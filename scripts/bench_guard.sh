#!/bin/sh
# bench_guard.sh — planner, simulator and sweep regression guard.
#
# Runs the Plan() benchmarks (with the default nil Recorder, i.e. the
# observability no-op path), the simulator benchmarks (cold and pooled
# arena) and one Table IV sweep, and fails if a deterministic count
# regresses against the recorded baseline in bench_results.txt:
#
#   - allocs/op: > +10% (allocation counts are deterministic, so the
#     tolerance only absorbs map-rehash jitter) — plus an absolute
#     slack of 2 allocs for the zero-alloc pooled paths, where +10% of
#     ~0 would reject harmless jitter;
#   - B/op:      > +10%, on the Table IV sweep only: a sweep that goes
#     back to building a workload per (model, policy) cell, or to
#     unpooled planners, more than doubles it, while the pooled hot
#     paths' residual B/op is amortized buffer growth and too jittery
#     to bound.
#
# ns/op is printed beside its baseline but never fails the run: wall
# time on a shared machine moves on untouched code. Wall-clock claims
# are judged by bench/run.sh, which alternates parent and change runs.
#
# The baseline is the LAST occurrence of each benchmark name in that
# file, so appending a fresh measurement section updates the bar.
set -eu
cd "$(dirname "$0")/.."

BASELINE=bench_results.txt
if [ ! -f "$BASELINE" ]; then
    echo "bench-guard: FAIL: baseline file $BASELINE not found in $(pwd)" >&2
    echo "bench-guard: record one with: go test -run '^\$' -bench 'BenchmarkPlannerPlan|BenchmarkSimRun' -benchtime 100x . | tee $BASELINE" >&2
    exit 1
fi
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

# 100 iterations: the guarded benchmarks are sub-millisecond each, and
# at 5x the one-time arena warm-up (first run on a fresh planner or
# simulator pool) dominated allocs/op; 100x measures the steady state
# the baseline records.
GOMAXPROCS=1 go test -run '^$' \
    -bench 'Benchmark(PlannerPlan_(VGG16|ResNet50|BERTLarge)|SimRun_(VGG16|ResNet50|BERTLarge)|SimRunPooled_BERTLarge)$' \
    -benchtime 100x . >"$OUT" 2>&1 || { cat "$OUT"; exit 1; }
# The sweep is ~0.4 s an iteration; its allocation counts repeat to
# within a fraction of a percent, so three iterations are enough.
GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkTable4_MaxSampleScale$' \
    -benchtime 3x -benchmem . >>"$OUT" 2>&1 || { cat "$OUT"; exit 1; }

awk '
    function field(unit,    i) { for (i = 2; i <= NF; i++) if ($i == unit) return $(i-1); return -1 }
    FNR == NR {
        if ($1 ~ /^Benchmark(PlannerPlan|SimRun|SimRunPooled|Table4)_/ && field("allocs/op") >= 0) {
            base_allocs[$1] = field("allocs/op")
            base_bytes[$1] = field("B/op")
            base_ns[$1] = field("ns/op")
        }
        next
    }
    $1 ~ /^Benchmark(PlannerPlan|SimRun|SimRunPooled|Table4)_/ {
        name = $1; sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
        allocs = field("allocs/op"); ns = field("ns/op")
        if (allocs < 0) next
        seen++
        if (!(name in base_allocs)) {
            printf "bench-guard: no baseline for %s in %s\n", name, ARGV[1]
            bad = 1; next
        }
        why = ""
        if (allocs > base_allocs[name] * 1.10 + 2) why = why "; allocs/op over baseline +10%"
        if (name ~ /^BenchmarkTable4_/ && field("B/op") > base_bytes[name] * 1.10)
            why = why sprintf("; %d B/op over baseline %d +10%%", field("B/op"), base_bytes[name])
        if (why != "") bad = 1
        # ns/op is reported, never judged.
        printf "bench-guard: %-4s %-32s %6d allocs/op (baseline %d), %10d ns/op (baseline %d)%s\n", \
            (why == "" ? "ok" : "FAIL"), name, allocs, base_allocs[name], ns, base_ns[name], why
    }
    END {
        if (seen < 8) { printf "bench-guard: only %d benchmark results parsed, want 8\n", seen; bad = 1 }
        exit bad
    }
' "$BASELINE" "$OUT" || { cat "$OUT"; exit 1; }
