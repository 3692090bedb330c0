GO ?= go

.PHONY: build test race vet check bench bench-pair loc trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the parallel sweep runner and every test that fans runs
# across workers under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the full verify loop: what CI (and the pre-commit habit)
# should run.
check: vet build test race

# bench runs the root package's scale benchmarks once each — measuring
# tools, not a gate. The repository benchmark is bench/ (BENCHMARK.json);
# a performance claim is bench-pair below and nothing else.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# trace-demo prints the paper's §4.2 ACK-compression chronology: Fig. 8's
# fixed-window configuration runs with its event trace in a store
# (DESIGN.md §14), then tahoe-query reads back the departures (transmit
# events) from 300 s to 305 s, each with the queue length in val.
trace-demo:
	$(GO) run ./cmd/tahoe-sim -config scenarios/fixed-window-fig8.json -plot=false -trace-store $${TMPDIR:-/tmp}/trace-demo.tobc
	$(GO) run ./cmd/tahoe-query -events -filter type=transmit -from 300s -to 305s $${TMPDIR:-/tmp}/trace-demo.tobc

# bench-pair is the paired comparison bench/README.md prescribes for any
# performance claim: the repository benchmark (bench/run.sh, 28 s a run)
# alternately on PARENT's committed files and on this working tree, then
# per end-to-end metric both sides' median and quartiles, pairs won, and
# whether the medians differ by more than the parent's own spread.
#   make bench-pair PARENT=HEAD~1 WORKLOAD=paper-twoway
PARENT ?= HEAD
WORKLOAD ?= mesh-ba2048
PAIRS ?= 10
bench-pair:
	scripts/benchpair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# loc counts non-test Go lines outside bench/, per package and in total;
# with REV, also REV's count and the difference per package and per file
# — the figure ROADMAP aim 2 asks every PR to report in CHANGES.md.
#   make loc REV=HEAD~1
REV ?=
loc:
	scripts/loc.sh $(REV)
