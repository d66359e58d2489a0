#!/bin/sh
# End-to-end smoke test of the postmortem pipeline: run bert-large
# under injected faults with a flight recorder attached, dump the
# flight ring, and check that tsplit-doctor can read the dump back and
# produce a non-empty phase-latency breakdown that includes the
# planner's phases. -require-phases makes the doctor itself the gate,
# so the script needs no JSON tooling.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$GO" run ./cmd/tsplit-train -model bert-large -batch 32 -budget 0.5 \
	-faults -fault-seed 7 \
	-flight-dump "$dir/dump.json" >/dev/null

"$GO" run ./cmd/tsplit-doctor -dump "$dir/dump.json" -require-phases -json >"$dir/diag.json"

# The JSON must be parseable and carry the sections CI consumers read.
for key in '"phases"' '"planner.plan"' '"planner.fold"' '"planner.finalize"' '"event_counts"'; do
	if ! grep -q "$key" "$dir/diag.json"; then
		echo "doctor-smoke: $key missing from tsplit-doctor -json output" >&2
		exit 1
	fi
done
echo "doctor-smoke: dump -> tsplit-doctor -json round trip ok"
