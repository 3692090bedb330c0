package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/topology"
)

// runSharded runs cfg with an explicit shard count.
func runSharded(cfg Config, k int) *Result {
	cfg.Shards = k
	return Run(cfg)
}

// TestShardedRunnerEngaged guards against the sharded path silently
// degenerating to serial: a two-region dumbbell must build a runner and
// both region engines must execute events.
func TestShardedRunnerEngaged(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Shards = 2
	s := Build(cfg)
	if s.runner == nil {
		t.Fatal("Shards=2 built no runner")
	}
	if len(s.engs) != 2 || len(s.pools) != 2 {
		t.Fatalf("engs=%d pools=%d, want 2 each", len(s.engs), len(s.pools))
	}
	res := s.Finish()
	for r, e := range s.engs {
		if e.Processed() == 0 {
			t.Fatalf("region %d executed no events", r)
		}
	}
	if sum := s.engs[0].Processed() + s.engs[1].Processed(); sum != res.Events {
		t.Fatalf("Events = %d, regions sum to %d", res.Events, sum)
	}
}

// TestShardedMatchesSerialRandomized is the lockstep property test:
// random chain topologies, random connection sets, random seeds — the
// sharded run must be byte-identical to the serial run at every shard
// count that fits the topology.
func TestShardedMatchesSerialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	taus := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	for trial := 0; trial < 8; trial++ {
		nSw := 2 + rng.Intn(4) // 2..5 switches, one host each
		cfg := DumbbellConfig(taus[rng.Intn(len(taus))], 5+rng.Intn(20))
		cfg.Switches = nSw
		cfg.Seed = rng.Int63()
		cfg.Warmup = 5 * time.Second
		cfg.Duration = 25 * time.Second
		cfg.Conns = nil
		nConns := 1 + rng.Intn(4)
		for c := 0; c < nConns; c++ {
			src := rng.Intn(nSw)
			dst := rng.Intn(nSw)
			if dst == src {
				dst = (src + 1) % nSw
			}
			cfg.Conns = append(cfg.Conns, ConnSpec{
				SrcHost:    src,
				DstHost:    dst,
				Start:      -1,
				DelayedAck: rng.Intn(3) == 0,
				ExtraDelay: time.Duration(rng.Intn(3)) * 20 * time.Millisecond,
			})
		}
		serial := runSharded(cfg, 1)
		for _, k := range []int{2, nSw} {
			sharded := runSharded(cfg, k)
			func() {
				defer func() {
					if t.Failed() {
						t.Logf("trial %d: %d switches, %d conns, seed %d, shards %d",
							trial, nSw, nConns, cfg.Seed, k)
					}
				}()
				assertRunsIdentical(t, serial, sharded)
			}()
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestShardedScaleFreeIdentity pins shard ≡ serial beyond lines: a
// seeded Barabási–Albert scale-free graph — hubs, leaves, uneven
// degree, partitioned by the BFS+refinement heuristic rather than
// contiguous chain blocks — must produce byte-identical results at
// every shard count.
func TestShardedScaleFreeIdentity(t *testing.T) {
	g := topology.BarabasiAlbert(24, 2, 9)
	cfg := Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     20,
		Seed:       7,
		Warmup:     5 * time.Second,
		Duration:   30 * time.Second,
		Conns: []ConnSpec{
			{SrcHost: 0, DstHost: 23, Start: -1},
			{SrcHost: 23, DstHost: 0, Start: -1},
			{SrcHost: 5, DstHost: 17, Start: -1},
			{SrcHost: 12, DstHost: 3, Start: -1},
		},
	}
	serial := runSharded(cfg, 1)
	for _, k := range []int{2, 4} {
		assertRunsIdentical(t, serial, runSharded(cfg, k))
	}
}

// TestShardedNoPoolIdentity crosses sharding with the unpooled test
// mode: ownership transfer must behave with nil region pools too.
func TestShardedNoPoolIdentity(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	serial := runSharded(cfg, 1)
	cfg.noPool = true
	assertRunsIdentical(t, serial, runSharded(cfg, 2))
}

// TestShardedExplicitRegions pins the Config.Regions override: a legal
// assignment reproduces the serial run; illegal ones surface as errors
// through RunE.
func TestShardedExplicitRegions(t *testing.T) {
	cfg := parkingLotShort() // 4 switches on a line
	serial := Run(cfg)
	cfg.Regions = [][]int{{0, 1}, {2, 3}}
	assertRunsIdentical(t, serial, Run(cfg))

	for name, regions := range map[string][][]int{
		"empty-region": {{0, 1, 2, 3}, {}},
		"duplicate":    {{0, 1}, {1, 2, 3}},
		"out-of-range": {{0, 1}, {2, 9}},
		"uncovered":    {{0, 1}, {2}},
	} {
		bad := parkingLotShort()
		bad.Regions = regions
		if _, err := RunE(bad); err == nil {
			t.Errorf("%s: RunE accepted bad regions %v", name, regions)
		}
	}

	conflict := parkingLotShort()
	conflict.Regions = [][]int{{0, 1}, {2, 3}}
	conflict.Shards = 3
	if _, err := RunE(conflict); err == nil {
		t.Error("RunE accepted Shards disagreeing with len(Regions)")
	}
}

// TestShardedCancelAndResume pins the cancellation contract under
// sharding: cancel lands mid-round without finalizing, and resuming
// completes to a Result byte-identical to an uninterrupted serial run.
func TestShardedCancelAndResume(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Shards = 2
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Obs = &obs.Options{Progress: &obs.Progress{
		Every: time.Second,
		Fn: func(s obs.Snapshot) {
			if s.Now >= 30*time.Second {
				cancel()
			}
		},
	}}
	s, err := BuildE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.FinishContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FinishContext error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a Result")
	}
	if now := s.Now(); now < 30*time.Second || now >= cfg.Duration {
		t.Fatalf("canceled at %v, want between 30s and %v", now, cfg.Duration)
	}
	resumed, err := s.FinishContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRunsIdentical(t, Run(twoWay(10*time.Millisecond)), resumed)
}

// TestShardedArenaReuse runs sharded scenarios back to back on one
// arena — engines, pools, and trace rings for every region must recycle
// without leaking state into the next run. Alternating with a serial
// run exercises the shared region-0 slots.
func TestShardedArenaReuse(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Shards = 2
	cold := Run(cfg)
	a := NewArena()
	first := a.Run(cfg)
	serialCfg := cfg
	serialCfg.Shards = 1
	a.Run(serialCfg) // interleave a serial run on the same arena
	second := a.Run(cfg)
	assertRunsIdentical(t, cold, first)
	assertRunsIdentical(t, cold, second)
}

// TestShardedTracing runs a sharded scenario with the full obs stack:
// physics must be untouched, the merged stream must reach the sink, and
// the sink must see every region's events in nondecreasing time order.
func TestShardedTracing(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	plain := Run(cfg)

	sink := obs.NewMemorySink()
	cfg.Shards = 2
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: sink}, Metrics: true}
	res, err := RunE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceErr != nil {
		t.Fatalf("TraceErr = %v", res.TraceErr)
	}
	assertRunsIdentical(t, plain, res)
	_, evs := sink.Snapshot()
	if len(evs) == 0 {
		t.Fatal("merged sink saw no events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("merged stream goes backwards at %d: %v after %v", i, evs[i].T, evs[i-1].T)
		}
	}
	// The merged stream carries the same number of events a serial
	// tracer records for this run.
	serialSink := obs.NewMemorySink()
	scfg := twoWay(10 * time.Millisecond)
	scfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: serialSink}}
	if _, err := RunE(scfg); err != nil {
		t.Fatal(err)
	}
	if got, want := len(evs), serialSink.Len(); got != want {
		t.Fatalf("merged stream has %d events, serial tracer %d", got, want)
	}
}

// TestShardsClampAndChainPartition checks shard-count clamping (more
// shards than switches) end to end on a longer chain.
func TestShardsClampAndChainPartition(t *testing.T) {
	g := topology.Chain(3)
	cfg := Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     DefaultBuffer,
		Seed:       7,
		Warmup:     5 * time.Second,
		Duration:   25 * time.Second,
		Conns: []ConnSpec{
			{SrcHost: 0, DstHost: 2, Start: -1},
			{SrcHost: 2, DstHost: 0, Start: -1},
			{SrcHost: 1, DstHost: 2, Start: -1},
		},
	}
	serial := runSharded(cfg, 1)
	assertRunsIdentical(t, serial, runSharded(cfg, 8)) // clamps to 3
}
