package tahoedyn

// Steady-state allocation contracts: once a scenario is warm, advancing
// it allocates nothing — serial or sharded, either scheduler, observed or
// not, forwarding from dense tables or from rows.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/sim"
)

// steadyStateConfig is the standard two-way scenario set up for stepped
// execution: a short warmup and a far-out Duration so trace containers
// are presized well past anything the tests step into.
func steadyStateConfig() core.Config {
	cfg := core.DumbbellConfig(10*time.Millisecond, 20)
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 10 * time.Second
	cfg.Duration = time.Hour
	return cfg
}

// rowModeConfig is steadyStateConfig's counterpart off the paper's
// topologies: a 130-switch line, past the switch's dense limit, so every
// switch forwards from its compiled interval row through its hot-route
// table; two-way pairs over 3 to 9 hops.
func rowModeConfig() core.Config {
	cfg := core.DumbbellConfig(10*time.Millisecond, 20)
	cfg.Switches = 130
	for _, pair := range [][2]int{{0, 3}, {60, 69}, {129, 124}, {2, 8}} {
		cfg.Conns = append(cfg.Conns,
			core.ConnSpec{SrcHost: pair[0], DstHost: pair[1], Start: -1},
			core.ConnSpec{SrcHost: pair[1], DstHost: pair[0], Start: -1})
	}
	cfg.Warmup = 10 * time.Second
	cfg.Duration = time.Hour
	// Unmeasured, as large networks run: 129 trunks' series are not the
	// forwarding path.
	cfg.MeasureTrunks, cfg.MeasureConns = []int{}, []int{}
	return cfg
}

// discardSink is a trace sink that drops every batch.
type discardSink struct{}

func (discardSink) Begin() error                       { return nil }
func (discardSink) Events([]string, []obs.Event) error { return nil }
func (discardSink) Close() error                       { return nil }

// TestSteadyStateAllocs is the hard assertion of the allocation contract:
// advancing the warmed scenario must not allocate beyond stray amortized
// container growth. The obs variants pin the zero-overhead contract —
// a nil Config.Obs, an empty (all-disabled) Options, and even live
// metrics+progress instruments must keep the hot path allocation-free.
// The sched variants pin it for both schedulers explicitly, and the
// arena variants for a simulation built from a warm arena. The rows
// variants run rowModeConfig: forwarding from interval rows behind
// hot-route tables, and hosts' endpoint tables, allocate nothing either.
// The traced variant hands a 64-event ring to its sink some ten times a
// stepped second, each step starting and joining the tracer's goroutine:
// rings from the arena, a method value in the go statement — nothing.
//
// testing.AllocsPerRun divides integers, so fewer allocations than
// stepped seconds read 0: the arena variants are also held to the bytes
// the whole measured span allocates (see arenaSpan).
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		sched sim.SchedKind
		obs   func() *obs.Options
		arena bool
		rows  bool
		want  float64 // max allocs per stepped sim-second
		bytes uint64  // max bytes over the measured span, arena variants
	}{
		{name: "obs-nil", want: 1},
		{name: "obs-empty-options", obs: func() *obs.Options { return &obs.Options{} }, want: 1},
		{name: "obs-metrics-and-progress", obs: func() *obs.Options {
			return &obs.Options{
				Metrics:  true,
				Progress: &obs.Progress{Every: 10 * time.Second, Fn: func(obs.Snapshot) {}},
			}
		}, want: 1},
		{name: "sched-wheel", sched: sim.SchedWheel, want: 1},
		{name: "sched-heap", sched: sim.SchedHeap, want: 1},
		{name: "arena-reused", sched: sim.SchedWheel, arena: true, want: 0, bytes: 0},
		{name: "arena-reused-heap", sched: sim.SchedHeap, arena: true, want: 0, bytes: 0},
		{name: "arena-reused-traced", arena: true, obs: func() *obs.Options {
			return &obs.Options{Trace: &obs.TraceOptions{Sink: discardSink{}, RingSize: 64}}
		}, want: 0, bytes: goroutineSlack},
		{name: "rows", rows: true, want: 1},
		{name: "rows-arena-reused", rows: true, arena: true, want: 0, bytes: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm well past slow start so the pool and free lists are
			// populated. Eight connections put more than a bucket's seed
			// capacity of events into a wheel slot now and then, and a slot
			// that has grown stays grown: the rows variants settle for
			// longer.
			cfg, settle := steadyStateConfig(), 30*time.Second
			if tc.rows {
				cfg, settle = rowModeConfig(), 100*time.Second
			}
			cfg.Sched = tc.sched
			if tc.obs != nil {
				cfg.Obs = tc.obs()
			}
			if !tc.arena {
				s := core.Build(cfg)
				s.RunUntil(settle)
				now := settle
				allocs := testing.AllocsPerRun(spanSteps, func() {
					now += time.Second
					s.RunUntil(now)
				})
				if allocs > tc.want {
					t.Errorf("steady-state simulation allocates %.2f/sim-second, want <= %v", allocs, tc.want)
				}
				return
			}
			allocs, bytes := arenaSpan(cfg, settle)
			if allocs > tc.want || bytes > tc.bytes {
				t.Errorf("steady state on the reused arena allocates %.2f/sim-second and %d B over the span, want <= %v and <= %d B", allocs, bytes, tc.want, tc.bytes)
			}
		})
	}
}

// goroutineSlack is what the runtime may allocate for itself over a span
// whose steps start and join goroutines (the traced and the sharded
// variants): a goroutine that blocks can take a new wait record once a
// collection has emptied the runtime's cache. Under -race the traced
// span read 96 or 192 B more than its usual count in 2 runs of 10. The
// serial untraced variants are held to the byte.
const goroutineSlack = 1 << 10

// spanSteps is the number of stepped sim-seconds AllocsPerRun averages
// over; it steps once more first, so the measured span is spanSteps+1
// seconds long.
const spanSteps = 50

// arenaSpan runs cfg once on a fresh arena for longer than the measured
// span, builds it again on the warm arena, runs that to settle, steps it
// one second, then a second at a time through the measured span: it
// returns AllocsPerRun's count a stepped second and the bytes the whole
// span allocated. The first run warms the arena — engine storage, packet
// free list, log chunks — as far as the second goes, so what the span
// allocates is what every build takes afresh. In the dumbbell that is
// nothing: the second build takes back the packets the first run still
// had in flight, in its ports and its engine's events, and hands the
// hosts' unbounded access ports the rings the first run grew. It runs
// on one processor, as AllocsPerRun does; the
// step before the span lets the runtime cache what a goroutine's start
// and join take (the tracer's, a shard worker's), and a collection just
// before it keeps the next one, and what the runtime allocates for it,
// out of the span. So the count is the same from run to run. Without
// that collection, TestSteadyStateAllocsPastColdReserve, which runs
// after these, read 16 B in 4 runs of 40 on a loaded machine. The
// collection wakes the runtime's scavenger, and warmTimers keeps what
// that costs the runtime out of the span too.
func arenaSpan(cfg core.Config, settle time.Duration) (allocs float64, bytes uint64) {
	a := core.NewArena()
	warm := cfg
	warm.Duration = settle + (spanSteps+10)*time.Second
	a.Run(warm)
	s := a.Build(cfg)
	s.RunUntil(settle)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	now := settle
	step := func() {
		now += time.Second
		s.RunUntil(now)
	}
	step()
	runtime.GC()
	warmTimers()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs = testing.AllocsPerRun(spanSteps, step)
	runtime.ReadMemStats(&m1)
	return allocs, m1.TotalAlloc - m0.TotalAlloc
}

// warmTimers leaves the processor the span runs on room in its timer
// heap. The runtime's background scavenger sleeps between rounds on a
// timer, and adding that timer to a processor whose heap is full grows
// the heap: 16 B on the runtime's own account, at
//
//	runtime.(*timers).addHeap
//	runtime.(*timer).maybeAdd
//	runtime.(*timer).modify
//	runtime.(*timer).reset
//	runtime.(*scavengerState).sleep
//	runtime.bgscavenge
//
// Under -race the scavenger's sleep fell inside the span in most runs of
// arena-reused-heap (after arena-reused). Four timers pending at once,
// then fired, leave room for it.
func warmTimers() {
	var wg sync.WaitGroup
	wg.Add(4)
	for range 4 {
		time.AfterFunc(time.Millisecond, wg.Done)
	}
	wg.Wait()
}

// TestShardedSteadyStateAllocs pins the sharded runner's steady-state
// allocation contract: once the region pools, edge buffers, inbox, and
// pre-built round workers are warm, advancing the simulation allocates
// nothing — not per packet, and not per synchronization round (this
// stepped sim-second spans 100 rounds of the 10 ms lookahead). Over the
// span it allocates what the serial arena variants do (see arenaSpan),
// and what each build's regions take afresh: their clock logs, which
// grow to the most timestamps a round has held.
func TestShardedSteadyStateAllocs(t *testing.T) {
	cfg := steadyStateConfig()
	cfg.Shards = 2
	allocs, bytes := arenaSpan(cfg, 30*time.Second)
	if want := uint64(2048 + goroutineSlack); allocs > 1 || bytes > want {
		t.Errorf("sharded steady-state simulation allocates %.2f/sim-second and %d B over the span, want <= 1 and <= %d B", allocs, bytes, want)
	}
}

// TestSteadyStateAllocsPastColdReserve is the arena-reused case at the
// length of the paper's long runs. Over 10 000 sim-s every log of a
// first run takes dozens of chunks mid-run (megabytes of them). The
// arena's pools keep them: a later run of the same length takes every
// chunk from the pools, allocates not a byte in its steady state, and
// steps at 0 allocs a simulated second to the end.
func TestSteadyStateAllocsPastColdReserve(t *testing.T) {
	cfg := steadyStateConfig()
	cfg.Duration = 10_000 * time.Second
	const settle, late = 100 * time.Second, 9_000 * time.Second
	grown := func(s *core.Sim) uint64 {
		s.RunUntil(settle)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.RunUntil(late)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	a := core.NewArena()
	first := a.Build(cfg)
	if n := grown(first); n < 2<<20 {
		t.Fatalf("the first run allocated %d B in steady state: no log took a chunk, the case is vacuous", n)
	}
	first.Finish()
	a.Run(cfg)
	s := a.Build(cfg)
	if n := grown(s); n > 0 {
		t.Errorf("steady state on the reused arena allocated %d B, want 0 (every chunk from the pools)", n)
	}
	now := late
	allocs := testing.AllocsPerRun(50, func() {
		now += time.Second
		s.RunUntil(now)
	})
	if allocs > 0 {
		t.Errorf("late in the run the reused arena allocates %.2f/sim-second, want 0", allocs)
	}
}
