#!/bin/sh
# Coverage gate for the planner core, the graph IR it plans over, the
# runtime simulator and its pooled allocator (the only owner of every
# block's placement), the observability layer, the static-analysis
# engine, the planning service, the workload preparer and its policy
# table, the baselines, the degradation ladder, and the float32 host
# executor that replays plans for real — the packages
# whose correctness the differential, fault-injection, postmortem,
# lint-dogfood, and serving layers lean on. Fails when any package's
# statement coverage drops below the floor.
set -eu

GO=${GO:-go}
FLOOR=80.0

fail=0
for pkg in ./internal/core ./internal/graph ./internal/sim ./internal/memorypool ./internal/obs ./internal/lint ./internal/serve ./internal/prep ./internal/resilient ./internal/baselines ./internal/hostexec; do
	profile=$(mktemp)
	"$GO" test -count=1 -coverprofile="$profile" "$pkg" >/dev/null
	total=$("$GO" tool cover -func="$profile" | awk 'END {gsub(/%/, "", $NF); print $NF}')
	rm -f "$profile"
	ok=$(awk -v t="$total" -v f="$FLOOR" 'BEGIN {print (t >= f) ? 1 : 0}')
	if [ "$ok" = 1 ]; then
		echo "cover: $pkg $total% (floor $FLOOR%)"
	else
		echo "cover: $pkg $total% is below the $FLOOR% floor" >&2
		fail=1
	fi
done
exit $fail
