GO ?= go

.PHONY: all vet fmt lint lint-audit build test race bench bench-guard verify-plans cover doctor-smoke serve-smoke train-smoke ci

all: ci

vet:
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# Static-analysis suite: the determinism rules (maporder, clockdet,
# floateq, errdrop, scratchreuse, spanpair) plus the interprocedural
# locking contract (guardedby) over every package in the module. Zero findings is the bar; suppress a
# justified site with //lint:allow <rule> <reason>. Findings also land
# in lint_report.json for CI artifact collection.
lint:
	$(GO) run ./cmd/tsplit-lint -report lint_report.json

# Every //lint:allow must carry a reason and name a rule the suite
# has; this lists them all and fails on reasonless suppressions and on
# suppressions naming an unknown (retired or misspelled) rule.
lint-audit:
	$(GO) run ./cmd/tsplit-lint -audit

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per planner/simulator benchmark: a smoke check that
# the benchmarks build and run, not a measurement (use -benchtime=100x
# for numbers worth recording in bench_results.txt).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPlannerPlan|BenchmarkSimRun' -benchtime 1x .

# Fail if the planner (nil Recorder), simulator (cold and pooled) or
# Table IV sweep benchmarks regress a deterministic count against the
# baseline in bench_results.txt: allocs/op by more than 10% + 2, or the
# sweep's B/op by more than 10%. ns/op is printed, never judged.
bench-guard:
	sh scripts/bench_guard.sh

# Static plan-invariant verification (core.VerifyAt) of the planner's and
# every applicable baseline's plans across the evaluation models.
verify-plans:
	$(GO) test -run 'TestVerifyPlanAllModels' -count=1 .

# Statement-coverage floor (80%) on the planner core, the runtime
# simulator, and the observability layer.
cover:
	sh scripts/cover_gate.sh

# Postmortem pipeline smoke: bert-large under faults with a flight
# recorder -> dump file -> tsplit-doctor -json parses with a non-empty
# phase breakdown.
doctor-smoke:
	sh scripts/doctor_smoke.sh

# Planning-service smoke: tsplit-serve -smoke (plan and peak: miss ->
# byte-identical hit over a real listener) -> metrics + dump artifacts
# -> tsplit-doctor reads the dump back with the serve phases present.
serve-smoke:
	sh scripts/serve_smoke.sh

# Float32 demo smoke: tsplit-train with its defaults and with a small
# batch under a looser budget. Each run exits 1 when a planned step's
# loss differs from the unconstrained run's.
train-smoke:
	$(GO) run ./cmd/tsplit-train
	$(GO) run ./cmd/tsplit-train -batch 16 -steps 3 -budget 0.8

ci: vet fmt lint lint-audit build race bench bench-guard verify-plans cover doctor-smoke serve-smoke train-smoke
