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

# trace-demo streams two seconds of packet lifecycle events from the
# paper's fig4-5 configuration as JSONL — a quick look at what
# `tahoe-trace -follow` (DESIGN.md §10) produces.
trace-demo:
	$(GO) run ./cmd/tahoe-trace -follow -tau 10ms -at 300s -span 2s

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
