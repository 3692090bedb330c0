package core

import (
	"reflect"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/topology"
)

// Arena reuse must be invisible to the physics: runs drawn from a warm
// arena are identical to cold runs, back to back, across configuration
// changes, and under both schedulers. This is the behavioral half of
// the DESIGN.md §11 ownership contract (the allocation half — a warm
// arena run is 0 allocs/op in steady state — is asserted by the root
// TestSteadyStateAllocs).
func TestArenaRunsAreByteIdentical(t *testing.T) {
	for _, kind := range []sim.SchedKind{sim.SchedWheel, sim.SchedHeap} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := twoWay(10 * time.Millisecond)
			cfg.Sched = kind
			cold := Run(cfg)

			a := NewArena()
			first := a.Run(cfg)
			second := a.Run(cfg) // fully warm: engine, pool, and ring all reused
			assertRunsIdentical(t, cold, first)
			assertRunsIdentical(t, cold, second)
		})
	}
}

// A warm arena must also serve a different configuration correctly —
// sweep workers run a new grid point on every job.
func TestArenaReuseAcrossConfigs(t *testing.T) {
	a := NewArena()
	small := twoWay(10 * time.Millisecond)
	large := twoWay(time.Second)

	wantSmall := Run(small)
	wantLarge := Run(large)
	assertRunsIdentical(t, wantSmall, a.Run(small))
	assertRunsIdentical(t, wantLarge, a.Run(large))
	assertRunsIdentical(t, wantSmall, a.Run(small))
}

// Switching Config.Sched mid-arena swaps the kept engine for one of the
// right kind without contaminating results.
func TestArenaSchedSwitch(t *testing.T) {
	a := NewArena()
	cfg := twoWay(10 * time.Millisecond)
	cfg.Sched = sim.SchedWheel
	wheel := a.Run(cfg)
	cfg.Sched = sim.SchedHeap
	heap := a.Run(cfg)
	cfg.Sched = sim.SchedWheel
	again := a.Run(cfg)
	assertRunsIdentical(t, wheel, heap)
	assertRunsIdentical(t, wheel, again)
}

// An arena-backed traced run must reuse the previous run's ring without
// leaking events between runs, and stay identical to a cold traced run.
func TestArenaTraceRingReuse(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	traced := func(c Config) (Config, *obs.MemorySink) {
		sink := obs.NewMemorySink()
		c.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: sink, RingSize: 512}}
		return c, sink
	}

	a := NewArena()
	firstCfg, firstSink := traced(cfg)
	secondCfg, secondSink := traced(cfg)
	coldCfg, coldSink := traced(cfg)
	first := a.Run(firstCfg)
	second := a.Run(secondCfg)
	cold := Run(coldCfg)

	assertRunsIdentical(t, cold, first)
	assertRunsIdentical(t, cold, second)
	wantLocs, wantEvents := coldSink.Snapshot()
	if len(wantEvents) == 0 {
		t.Fatal("cold traced run produced no events")
	}
	for i, sink := range []*obs.MemorySink{firstSink, secondSink} {
		locs, events := sink.Snapshot()
		if !reflect.DeepEqual(locs, wantLocs) {
			t.Fatalf("run %d: location tables differ", i)
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("run %d: trace streams differ (%d vs %d events)", i, len(events), len(wantEvents))
		}
	}
}

// A build on an arena that ran a larger one keeps no reference into it:
// every wiring slab holds the new build's elements and nil past them,
// so the big run's switches, hosts, ports, endpoints — and the logs its
// ports' hooks hold — are garbage once its Result is dropped.
func TestArenaSlabsDropLargerBuild(t *testing.T) {
	g := ring(130)
	for h := range 8 {
		g.Hosts = append(g.Hosts, topology.HostSpec{Switch: 16 * h})
	}
	big := ringEventConfig()
	big.Topology = &g
	big.Duration = 5 * time.Second
	for k := range 6 {
		big.Conns = append(big.Conns, ConnSpec{SrcHost: k, DstHost: (k + 3) % 8})
	}
	a := NewArena()
	a.Run(big)
	small := twoWay(10 * time.Millisecond)
	s := a.Build(small)
	nh := s.res.Topo.NumHosts()
	for _, sl := range []struct {
		name        string
		used, alive int
	}{
		{"switch", len(s.switches), live(a.swSlab)},
		{"host", nh, live(a.hostSlab)},
		{"trunk", len(s.trunks), live(a.trunkSlab)},
		{"sender", len(s.senders), live(a.sendSlab)},
		{"receiver", len(s.receivers), live(a.recvSlab)},
	} {
		if sl.alive > sl.used {
			t.Errorf("the %s slab references %d elements after a build that made %d", sl.name, sl.alive, sl.used)
		}
	}
	s.Finish()
}

// live returns the index past the last non-zero element of s's backing
// array.
func live[T comparable](s []T) int {
	var zero T
	s = s[:cap(s)]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != zero {
			return i + 1
		}
	}
	return 0
}
