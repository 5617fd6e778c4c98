# Repo-wide checks. `make check` is what CI's default job (and
# pre-commit discipline) runs: vet, build everything, the full test
# suite, the metric-name lint, the gofmt gate over every tracked Go
# file, a vet and short test of the benchmark module, plus a
# staticcheck pass and a vulnerability scan when those
# tools are available (each needs the tool and, for govulncheck,
# network access, so both are skipped, loudly, where missing). The
# race detector runs outside the default target so it stays fast: CI's
# race job covers the packages where goroutines meet shared state
# (internal/core's context-cancel flag, internal/experiment's
# Table1Parallel, all of internal/server, whose workers, retry timers,
# disk probe and API calls meet in the job lifecycle, and the short
# tests of internal/fleet, whose sweep, handlers and the steps of jobs
# in transit meet in the coordinator's tables), and `make race` is the
# full-suite version for local soaks.

GO ?= go

.PHONY: check vet build test fmt bench-check bench-smoke race soak-fleet soak-disk soak-slow microbench lint-metrics staticcheck vulncheck

check: vet build test lint-metrics fmt bench-check staticcheck vulncheck

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt over the tracked Go files must print nothing.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt: not formatted:"; echo "$$out"; exit 1; fi

# perfbench is its own Go module (it builds this one through a replace
# directive), so the targets above never compile it: vet it and run its
# short self-tests, so a change to the router's API cannot break the
# benchmark unseen.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# The benchmark command itself, run short: every workload of
# BENCHMARK.json, untraced and traced, for 4 s at seed 1. Each run must
# exit 0 and end with a "correct":true line. bench-check compiles and
# self-tests perfbench at a small scale; this runs the real command at
# full scale, so a run that fails outright is caught here (a traced
# half that finishes no operation, for one, reports +Inf, which the
# JSON line cannot carry). CI runs it as its own job.
bench-smoke:
	@for w in table1 service eco; do \
		for t in 0 1; do \
			echo "bench-smoke: $$w --trace $$t"; \
			out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 4 --trace $$t) || { \
				printf '%s\n' "$$out" | tail -n 5; \
				echo "bench-smoke: $$w --trace $$t exited non-zero"; exit 1; }; \
			case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
			*'"correct":true'*) ;; \
			*) echo "bench-smoke: $$w --trace $$t: last line is not \"correct\":true"; exit 1 ;; \
			esac; \
		done; \
	done

# The fleet chaos soak under the race detector: four workers plus a
# coordinator in one process, scripted partitions, a heartbeat-muted
# zombie and a full node kill, with every job required to finish
# bit-identical to its oracle and committed done in exactly one journal
# fleet-wide. The broker steals a node's waiting job, the one it names
# when asked, whenever another ready node has an idle worker, so the
# work-stealing tests ride along, among them steals whose answer is
# lost and one whose taker is fenced before its answer arrives. CI runs
# this as its own job; the
# kill/handoff acceptance test rides along because it exercises the
# same failover machinery through the real grrd binary.
soak-fleet:
	$(GO) test -race -count=1 ./internal/fleet/ -run 'TestFleetChaosSoak|TestWorkStealingRebalances|TestStealAfterLostAnswer'
	$(GO) test -race -count=1 ./cmd/grrd/ -run 'TestFleet'

# The fail-slow soak under the race detector: four workers, one of
# them slow on CPU and disk (delayed, never failing), 160 deadline-
# carrying jobs in two phases. Placement ranks each node by jobs in
# flight, then by its own latest attempt time, so the slow node takes
# few jobs; in the second phase a straggler is stolen from it and
# resumed on a peer, and that phase's p99 must land strictly below the
# unmoved baseline's in the same run, with zero jobs lost or duplicated
# (done in exactly one journal fleet-wide) and every result
# bit-identical to its oracle. The ranking's own tests ride along: the
# candidate-order contract, and healthy fleets of 3 and 4 nodes under
# load, where no ready node may rank behind one with more jobs in
# flight. So do the deadline and move plumbing tests, which gate the
# same contract, and the request-hardening tests, with the front-door
# test holding the coordinator to grrd's answer for each of those
# requests.
soak-slow:
	$(GO) test -race -count=1 ./internal/fleet/ -run 'TestFleetSlowSoak|TestMove|TestCandidateOrderDeterministic|TestHealthyFleetPlacesByQueue|TestFrontDoorMatchesGrrd'
	$(GO) test -race -count=1 ./internal/server/ -run 'TestDeadline|TestMaxBody|TestJournalDeadline|TestStealJob|TestFencedNode'

# The crash-consistency and disk-fault soak under the race detector:
# the simfs replay model's own tests, the ALICE-style op-boundary
# enumeration over snapshot saves, the job journal and EPOCH fencing
# (every crash point materialized and recovered with the real code,
# results required bit-identical), plus the injected-ENOSPC degraded
# posture — park, 507 shedding, fleet routing-around, self-heal. CI
# runs this as its own job.
soak-disk:
	$(GO) test -race -count=1 ./internal/simfs/
	$(GO) test -race -count=1 ./internal/boardio/ -run 'CrashEnum|AtomicWrite|SyncDir|RemoveStaleTmp'
	$(GO) test -race -count=1 ./internal/server/ -run 'CrashEnum|Disk'
	$(GO) test -race -count=1 ./internal/fleet/ -run 'TestFleetRoutesAroundDiskDegradedNode'

# The go-test microbenchmarks of the root package, with allocations.
# The repo's benchmark of record is perfbench (BENCHMARK.json); the
# goal-engine gate runs in the test suite (TestTable1Shape).
microbench:
	$(GO) test -bench=. -benchmem .

# Every grr_* series registered in code must follow the naming
# convention and appear in the DESIGN.md §10 catalog (and vice versa).
lint-metrics:
	$(GO) run ./tools/lintmetrics

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
