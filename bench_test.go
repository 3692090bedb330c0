package tahoedyn

// The benchmark harness: one benchmark per paper figure/claim, each
// regenerating the experiment at reduced scale and reporting the
// headline numbers as benchmark metrics (so `go test -bench` prints the
// same rows the paper reports), plus microbenchmarks of the simulation
// engine itself.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/experiment"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// benchOpts shrinks experiment durations so a bench iteration stays
// around a hundred milliseconds while preserving the dynamics. (The
// full-scale acceptance bands are asserted by the test suite; at half
// scale a band can occasionally miss, which the bands-passed metric
// surfaces without failing the bench.)
var benchOpts = experiment.Options{Scale: 0.5}

// runExperiment is the common bench body: run the experiment b.N times
// and report its metrics from the last outcome.
func runExperiment(b *testing.B, name string, metrics func(*experiment.Outcome, *testing.B)) {
	b.Helper()
	b.ReportAllocs()
	def, ok := experiment.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	var out *experiment.Outcome
	// One untimed warm-up run, then settle the garbage: recordings run
	// every benchmark back to back at -benchtime 1x, and without this a
	// neighbor's GC debt lands inside our timed region and the timed run
	// pays one-time pool fills. A single GC keeps sync.Pool contents
	// reachable (victim cache), so the run arena stays warm.
	out = def.Run(benchOpts)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = def.Run(benchOpts)
	}
	if out.Result != nil {
		b.ReportMetric(float64(out.Result.Events)/b.Elapsed().Seconds()*float64(b.N),
			"sim-events/s")
	}
	passed := 0.0
	if out.Passed() {
		passed = 1
	}
	b.ReportMetric(passed, "bands-passed")
	if metrics != nil {
		metrics(out, b)
	}
}

func reportUtil(out *experiment.Outcome, b *testing.B) {
	if out.Result != nil {
		b.ReportMetric(out.Result.UtilForward()*100, "util-fwd-%")
		b.ReportMetric(out.Result.UtilReverse()*100, "util-rev-%")
	}
}

func BenchmarkFig2OneWay(b *testing.B) {
	runExperiment(b, "fig2-oneway", reportUtil)
}

func BenchmarkOneWaySmallPipe(b *testing.B) {
	runExperiment(b, "oneway-smallpipe", reportUtil)
}

func BenchmarkOneWayBufferScaling(b *testing.B) {
	runExperiment(b, "oneway-buffers", nil)
}

func BenchmarkFig3TenConns(b *testing.B) {
	runExperiment(b, "fig3-tenconns", reportUtil)
}

func BenchmarkFig45OutOfPhase(b *testing.B) {
	runExperiment(b, "fig4-5", reportUtil)
}

func BenchmarkFig67InPhase(b *testing.B) {
	runExperiment(b, "fig6-7", reportUtil)
}

func BenchmarkFig8FixedWindow(b *testing.B) {
	runExperiment(b, "fig8-fixed", func(out *experiment.Outcome, b *testing.B) {
		reportUtil(out, b)
		r := out.Result
		b.ReportMetric(r.Q1().Max(r.MeasureFrom, r.MeasureTo), "q1-max-pkts")
		b.ReportMetric(r.Q2().Max(r.MeasureFrom, r.MeasureTo), "q2-max-pkts")
	})
}

func BenchmarkFig9FixedWindow(b *testing.B) {
	runExperiment(b, "fig9-fixed", reportUtil)
}

func BenchmarkZeroACKConjecture(b *testing.B) {
	runExperiment(b, "zeroack-conjecture", nil)
}

func BenchmarkACKCompression(b *testing.B) {
	runExperiment(b, "ack-compression", nil)
}

func BenchmarkDelayedACK(b *testing.B) {
	runExperiment(b, "delayed-ack", nil)
}

func BenchmarkFourSwitch(b *testing.B) {
	runExperiment(b, "four-switch", nil)
}

func BenchmarkPacingAblation(b *testing.B) {
	runExperiment(b, "pacing-ablation", nil)
}

func BenchmarkRenoTwoWay(b *testing.B) {
	runExperiment(b, "reno", nil)
}

func BenchmarkRandomDrop(b *testing.B) {
	runExperiment(b, "random-drop", nil)
}

func BenchmarkUnequalRTT(b *testing.B) {
	runExperiment(b, "unequal-rtt", nil)
}

func BenchmarkParkingLot(b *testing.B) {
	runExperiment(b, "parking-lot", nil)
}

func BenchmarkCongestionWave(b *testing.B) {
	runExperiment(b, "congestion-wave", nil)
}

// BenchmarkClusteringMetric measures the clustering analysis over a
// realistic departure log (E13).
func BenchmarkClusteringMetric(b *testing.B) {
	cfg := Dumbbell(time.Second, 20)
	for i := 0; i < 3; i++ {
		cfg.Conns = append(cfg.Conns, ConnSpec{SrcHost: 0, DstHost: 1, Start: -1})
	}
	cfg.Warmup = 100 * time.Second
	cfg.Duration = 400 * time.Second
	res := Run(cfg)
	deps := res.TrunkDeps[0][0]
	b.ReportAllocs()
	b.ResetTimer()
	var c float64
	for i := 0; i < b.N; i++ {
		c = Clustering(deps)
	}
	b.ReportMetric(c, "clustering")
}

// BenchmarkEngine measures raw event throughput of the discrete-event
// core: schedule-and-run of pre-seeded timer chains.
func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				eng.Schedule(time.Millisecond, tick)
			}
		}
		eng.Schedule(time.Millisecond, tick)
		eng.Run()
	}
}

// BenchmarkEngineScheduleCancel measures the retransmit-timer pattern:
// every scheduled event is canceled before it fires, so the free list
// should absorb all allocation and Cancel's remove-by-index should keep
// the heap at its steady-state size.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eng.Schedule(time.Second, func() {})
		ev.Cancel()
	}
	if eng.Pending() != 0 {
		b.Fatalf("heap leaked %d events", eng.Pending())
	}
}

// BenchmarkEngineDepth measures schedule+fire cost as a function of how
// many events are already pending, exercising siftUp/siftDown across
// heap depths.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{64, 1024, 16384, 262144} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.New()
			// Far-future ballast keeps the heap at the target depth.
			for i := 0; i < depth; i++ {
				eng.Schedule(time.Hour+time.Duration(i)*time.Millisecond, func() {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Schedule(time.Microsecond, func() {})
				eng.Step()
			}
		})
	}
}

// BenchmarkScenarioThroughput measures end-to-end simulation speed in
// simulated-seconds per wall-second for the standard two-way scenario.
func BenchmarkScenarioThroughput(b *testing.B) {
	cfg := core.DumbbellConfig(10*time.Millisecond, 20)
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 10 * time.Second
	cfg.Duration = 300 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := core.Run(cfg)
		events = res.Events
	}
	simSecs := cfg.Duration.Seconds() * float64(b.N)
	b.ReportMetric(simSecs/b.Elapsed().Seconds(), "sim-s/wall-s")
	b.ReportMetric(float64(events), "events/run")
}

// steadyStateConfig is the standard two-way scenario set up for stepped
// execution: a short warmup and a far-out Duration so trace containers
// are presized well past anything the bench steps into.
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
// topologies: a 130-switch line, past both dense limits, so the topology
// compiles interval rows and every switch forwards from one through its
// hot-route table; two-way pairs over 3 to 9 hops.
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

// BenchmarkScenarioSteadyStateAllocs measures per-simulated-second heap
// allocations once the two-way scenario is past slow start: the packet
// pool and the engine free list should absorb the entire per-packet
// path, so allocs/op reads ~0 at real benchtime. pool-misses counts
// packets the pool had to allocate over the whole run (the transient
// working set, not a per-iteration cost).
func BenchmarkScenarioSteadyStateAllocs(b *testing.B) {
	cfg := steadyStateConfig()
	s := core.Build(cfg)
	s.RunUntil(cfg.Warmup)
	b.ReportAllocs()
	runtime.GC() // collect build+warmup garbage off the clock
	b.ResetTimer()
	t := cfg.Warmup
	for i := 0; i < b.N; i++ {
		t += time.Second
		s.RunUntil(t)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Pool().Allocs()), "pool-misses")
	b.ReportMetric(float64(s.Pool().Recycled())/float64(b.N), "recycled/op")
}

// BenchmarkScenarioSteadyState is the headline engine number: steady-
// state event throughput of the warmed two-way scenario, one simulated
// second per op, reported as sim-events/s. Sub-benchmarks pin both
// schedulers so heap-vs-wheel is one `go test -bench` away; the
// recorded docs/BENCH_pr*.json snapshots track the wheel number.
func BenchmarkScenarioSteadyState(b *testing.B) {
	for _, kind := range []sim.SchedKind{sim.SchedWheel, sim.SchedHeap} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := steadyStateConfig()
			cfg.Sched = kind
			s := core.Build(cfg)
			s.RunUntil(cfg.Warmup)
			var events uint64
			base := s.Events()
			b.ReportAllocs()
			runtime.GC() // collect build+warmup garbage off the clock
			b.ResetTimer()
			t := cfg.Warmup
			for i := 0; i < b.N; i++ {
				if t+time.Second > cfg.Duration {
					// Long benchtimes outrun the scenario; rebuild and
					// rewarm off the clock.
					b.StopTimer()
					events += s.Events() - base
					s = core.Build(cfg)
					s.RunUntil(cfg.Warmup)
					base = s.Events()
					t = cfg.Warmup
					b.StartTimer()
				}
				t += time.Second
				s.RunUntil(t)
			}
			b.StopTimer()
			events += s.Events() - base
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "sim-events/s")
		})
	}
}

// TestSteadyStateAllocs is the hard assertion behind the benchmark:
// advancing the warmed scenario must not allocate beyond stray amortized
// container growth. The obs variants pin the zero-overhead contract —
// a nil Config.Obs, an empty (all-disabled) Options, and even live
// metrics+progress instruments must keep the hot path allocation-free.
// The sched variants pin it for both schedulers explicitly, and the
// arena variant for a simulation built from a warm arena: its second
// back-to-back run must be exactly 0 allocs per simulated second. The
// rows variants run rowModeConfig: forwarding from interval rows behind
// hot-route tables, and hosts' endpoint tables, allocate nothing either.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		sched sim.SchedKind
		obs   func() *obs.Options
		arena bool
		rows  bool
		want  float64 // max allocs per stepped sim-second
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
		{name: "arena-reused", sched: sim.SchedWheel, arena: true, want: 0},
		{name: "arena-reused-heap", sched: sim.SchedHeap, arena: true, want: 0},
		{name: "rows", rows: true, want: 1},
		{name: "rows-arena-reused", rows: true, arena: true, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm well past slow start so the pool and free lists are
			// populated. Eight connections put more than a bucket's seed
			// capacity of events into a wheel slot now and then, and a slot
			// that has grown stays grown: the rows variants settle for
			// longer, and their arena's first run covers the measured span.
			cfg, settle, first := steadyStateConfig(), 30*time.Second, 40*time.Second
			if tc.rows {
				cfg, settle, first = rowModeConfig(), 100*time.Second, 160*time.Second
			}
			cfg.Sched = tc.sched
			if tc.obs != nil {
				cfg.Obs = tc.obs()
			}
			var s *core.Sim
			if tc.arena {
				// A first full run warms the arena — engine storage,
				// packet free list — so the second, reused build's steady
				// state has nothing left to allocate.
				a := core.NewArena()
				warm := cfg
				warm.Duration = first
				a.Run(warm)
				s = a.Build(cfg)
			} else {
				s = core.Build(cfg)
			}
			s.RunUntil(settle)
			now := settle
			allocs := testing.AllocsPerRun(50, func() {
				now += time.Second
				s.RunUntil(now)
			})
			if allocs > tc.want {
				t.Errorf("steady-state simulation allocates %.2f/sim-second, want <= %v", allocs, tc.want)
			}
		})
	}
}

// BenchmarkTahoeSender isolates the TCP state machine: a sender and
// receiver wired back-to-back through zero-delay function calls.
func BenchmarkTahoeSender(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		cfg := core.DumbbellConfig(10*time.Millisecond, 20)
		cfg.Conns = []core.ConnSpec{{SrcHost: 0, DstHost: 1, Start: 0}}
		cfg.Warmup = time.Second
		cfg.Duration = 30 * time.Second
		core.Run(cfg)
		_ = eng
	}
}

// Sanity checks so `go test` at the repository root also exercises the
// facade itself.

func TestFacadeRunAndAnalyze(t *testing.T) {
	cfg := Dumbbell(10*time.Millisecond, 20)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 50 * time.Second
	cfg.Duration = 250 * time.Second
	res := Run(cfg)
	if res.UtilForward() <= 0 || res.UtilForward() > 1 {
		t.Fatalf("utilization out of range: %v", res.UtilForward())
	}
	mode, _ := Phase(res.Cwnd[0], res.Cwnd[1], cfg.Warmup, cfg.Duration, time.Second)
	if mode != PhaseOut && mode != PhaseIn && mode != PhaseMixed {
		t.Fatalf("unexpected phase mode %v", mode)
	}
	if len(res.Drops) == 0 {
		t.Fatal("expected drops in the congested scenario")
	}
	for _, d := range res.Drops {
		if d.Kind == packet.Ack {
			t.Fatal("an ACK was dropped")
		}
	}
	eps := Epochs(res.Drops, 2*time.Second)
	if len(eps) == 0 {
		t.Fatal("no congestion epochs detected")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	defs := Experiments()
	if len(defs) != 25 {
		t.Fatalf("registry has %d experiments, want 25", len(defs))
	}
	if _, err := Experiment("no-such-experiment", ExpOptions{}); err == nil || !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("unknown experiment: err = %v, want one naming it", err)
	}
	out, err := Experiment("oneway-smallpipe", ExpOptions{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != "oneway-smallpipe" {
		t.Fatalf("outcome ID = %q", out.ID)
	}
}

func BenchmarkFairQueueing(b *testing.B) {
	runExperiment(b, "fair-queueing", nil)
}

func BenchmarkIncreaseRule(b *testing.B) {
	runExperiment(b, "increase-rule", nil)
}

func BenchmarkModeBoundary(b *testing.B) {
	runExperiment(b, "mode-boundary", nil)
}

// BenchmarkRedTwoWay is the red-sync experiment: two-way traffic
// through RED gateways vs drop-tail, the cost of the probabilistic
// discipline on the hot path included.
func BenchmarkRedTwoWay(b *testing.B) {
	runExperiment(b, "red-sync", nil)
}

func BenchmarkCrossTraffic(b *testing.B) {
	runExperiment(b, "cross-traffic", nil)
}

// BenchmarkTraceDrivenLink runs the two-way scenario over a trunk that
// replays a cellular-like rate schedule, measuring the per-departure
// cost of the time-varying serialization rate.
func BenchmarkTraceDrivenLink(b *testing.B) {
	rt, err := ParseRateTrace(strings.NewReader(
		"500ms 50000\n250ms 18000\n750ms 32000\n500ms 64000\n"))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DumbbellConfig(10*time.Millisecond, 20)
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Behavior = &BehaviorSpec{Trace: rt}
	cfg.Warmup = 10 * time.Second
	cfg.Duration = 300 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := core.Run(cfg)
		events = res.Events
	}
	simSecs := cfg.Duration.Seconds() * float64(b.N)
	b.ReportMetric(simSecs/b.Elapsed().Seconds(), "sim-s/wall-s")
	b.ReportMetric(float64(events), "events/run")
}

// TestShardedSteadyStateAllocs pins the sharded runner's steady-state
// allocation contract: once the region pools, edge buffers, inbox, and
// pre-built round workers are warm, advancing the simulation allocates
// nothing — not per packet, and not per synchronization round (this
// stepped sim-second spans 100 rounds of the 10 ms lookahead).
func TestShardedSteadyStateAllocs(t *testing.T) {
	cfg := steadyStateConfig()
	cfg.Shards = 2
	a := core.NewArena()
	warm := cfg
	warm.Duration = 40 * time.Second
	a.Run(warm)
	s := a.Build(cfg)
	s.RunUntil(30 * time.Second)
	now := 30 * time.Second
	allocs := testing.AllocsPerRun(50, func() {
		now += time.Second
		s.RunUntil(now)
	})
	if allocs > 1 {
		t.Errorf("sharded steady-state simulation allocates %.2f/sim-second, want <= 1", allocs)
	}
}

// shardScalingConfig is the sharding headline workload: a 1024-switch
// chain (1023 trunks) carrying 10^4 neighbor-local connections — 2x the
// ISSUE floor of 10^3 nodes, and local flows so only the partition's
// cut trunks carry cross-region traffic. Trunks run at 4x the paper
// rate to keep every link busy without making one simulated second
// unaffordable at -benchtime 1x.
func shardScalingConfig() core.Config {
	g := ChainTopology(1024)
	cfg := core.Config{
		Topology:       &g,
		TrunkBandwidth: 4 * core.DefaultTrunkBandwidth,
		TrunkDelay:     10 * time.Millisecond,
		Buffer:         core.DefaultBuffer,
		Seed:           1,
		Warmup:         2 * time.Second,
		// 10 steppable sim-seconds past warmup. Duration feeds the
		// trace-reserve estimate, and with 2046 trunk ports a long
		// horizon preallocates gigabytes per Build — enough that four
		// back-to-back sub-benchmark builds drown a single-core host
		// in GC work. Keep it short; the bench rebuilds on overrun.
		Duration: 12 * time.Second,
	}
	for k := 0; k < 5000; k++ {
		t := k % 1023
		cfg.Conns = append(cfg.Conns,
			core.ConnSpec{SrcHost: t, DstHost: t + 1, Start: -1},
			core.ConnSpec{SrcHost: t + 1, DstHost: t, Start: -1},
		)
	}
	return cfg
}

// BenchmarkShardScaling is the sharded-run scaling curve: steady-state
// event throughput of the large-chain workload at 1/2/4/8 shards, one
// simulated second per op. events/run is deterministic and identical at
// every shard count (the identity contract); sim-events/s is the
// wall-clock headline. Its scaling has two sources: true parallelism
// (one core per region, when the machine has them) and scheduler
// locality — a region engine holds 1/k of the event population, so its
// timing-wheel cursor and cache footprint shrink with k. The reference
// recordings come from single-core hosts (see README "Sharded runs"),
// where the curve shows only the locality term.
func BenchmarkShardScaling(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			cfg := shardScalingConfig()
			cfg.Shards = k
			s := core.Build(cfg)
			s.RunUntil(cfg.Warmup)
			var events uint64
			base := s.Events()
			runtime.GC() // collect build+warmup garbage off the clock
			b.ResetTimer()
			t := cfg.Warmup
			for i := 0; i < b.N; i++ {
				if t+time.Second > cfg.Duration {
					b.StopTimer()
					events += s.Events() - base
					s = core.Build(cfg)
					s.RunUntil(cfg.Warmup)
					base = s.Events()
					t = cfg.Warmup
					b.StartTimer()
				}
				t += time.Second
				s.RunUntil(t)
			}
			b.StopTimer()
			events += s.Events() - base
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "sim-events/s")
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}
