#!/bin/sh
# End-to-end smoke test of the planning service: run tsplit-serve's
# self-test against a real listener (plan and peak: miss ->
# byte-identical hit; 404 on an unknown model, /healthz, /metrics),
# then check that the artifacts it leaves behind are consumable — the
# metrics file by a Prometheus-text grep, the postmortem dump by
# tsplit-doctor, whose -require-phases flag gates on the
# serve.request/serve.plan spans.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$GO" run ./cmd/tsplit-serve -smoke \
	-metrics-out "$dir/metrics.prom" -dump-out "$dir/dump.json" >/dev/null

for series in tsplit_serve_requests_total tsplit_serve_cache_hits_total \
	tsplit_serve_cache_misses_total tsplit_serve_planner_runs_total \
	tsplit_serve_plan_seconds tsplit_serve_peak_cache_hits_total \
	tsplit_serve_peak_seconds; do
	if ! grep -q "^$series" "$dir/metrics.prom"; then
		echo "serve-smoke: $series missing from the metrics exposition" >&2
		exit 1
	fi
done

# The self-test names workloads the fresh server has not built: the
# build counter and its latency histogram must both have counted them.
for series in tsplit_serve_workload_builds_total tsplit_serve_workload_build_seconds_count; do
	n=$(awk -v s="$series" '$1 == s { print $2 }' "$dir/metrics.prom")
	case "$n" in
	'' | 0 | *[!0-9]*)
		echo "serve-smoke: $series is '$n' in the metrics exposition, want >= 1" >&2
		exit 1
		;;
	esac
done

"$GO" run ./cmd/tsplit-doctor -dump "$dir/dump.json" -require-phases -json >"$dir/diag.json"

for key in '"serve.request"' '"serve.plan"' '"serve.peak"' '"serve.cache.hit"' '"serve.cache.miss"' \
	'"serve.peak.cache.hit"'; do
	if ! grep -q "$key" "$dir/diag.json"; then
		echo "serve-smoke: $key missing from tsplit-doctor -json output" >&2
		exit 1
	fi
done
echo "serve-smoke: plan + peak -> cache -> dump -> tsplit-doctor round trip ok"
