GO ?= go

.PHONY: build test race vet check bench bench-shards bench-baseline bench-record bench-compare bench-pair trace-demo

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

bench:
	$(GO) test -bench . -benchtime 1x -benchmem .

# bench-shards runs just the sharded scaling curve (1/2/4/8 regions on
# the 1024-switch chain). events/run must print identically on every
# leg — that is the determinism contract; sim-events/s depends on the
# machine (see README "Sharded runs").
bench-shards:
	$(GO) test -run xxx -bench BenchmarkShardScaling -benchtime 1x -benchmem .

# trace-demo streams two seconds of packet lifecycle events from the
# paper's fig4-5 configuration as JSONL — a quick look at what
# `tahoe-trace -follow` (DESIGN.md §10) produces.
trace-demo:
	$(GO) run ./cmd/tahoe-trace -follow -tau 10ms -at 300s -span 2s

# bench-baseline regenerates docs/BENCH_baseline.json; see
# docs/BENCH_baseline.md for how to read and compare it.
bench-baseline:
	$(GO) test -run xxx -bench . -benchtime 1x -count 3 -json . > docs/BENCH_baseline.json

# bench-record captures a recording for the current tree, e.g.
#   make bench-record OUT=docs/BENCH_pr5.json
# Three one-iteration samples per benchmark: paper metrics are
# deterministic (identical every sample), and benchcmp.sh takes the best
# wall-clock sample so recordings survive a noisy box.
OUT ?= docs/BENCH_pr5.json
bench-record:
	$(GO) test -run xxx -bench . -benchtime 1x -count 3 -json . > $(OUT)

# bench-compare diffs two recordings: exit 1 if any paper metric
# (util-*, bands-passed, events/run) changed, warnings for allocs/op
# regressions. Override OLD/NEW to compare arbitrary recordings.
OLD ?= docs/BENCH_baseline.json
NEW ?= docs/BENCH_pr2.json
bench-compare:
	scripts/benchcmp.sh $(OLD) $(NEW)

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
