package core_test

// Integration coverage for the streaming invariant engine over real
// simulator runs: every shipped scenario, both §4 synchronization
// regimes, a sharded run, metric identity with checking off, and a
// deliberately corrupted stored trace that must be flagged with the
// offending event.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/scenario"
	"tahoedyn/internal/tstore"
)

// loadScenario parses a shipped scenario file at quarter duration —
// invariants hold at any length, so the tests keep runs short.
func loadScenario(t *testing.T, path string) core.Config {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := scenario.Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	cfg.Warmup /= 4
	cfg.Duration /= 4
	return cfg
}

func requireClean(t *testing.T, res *core.Result) {
	t.Helper()
	if res.Invariant != nil {
		t.Fatal(res.Invariant)
	}
	if res.TraceErr != nil {
		t.Fatalf("trace error: %v", res.TraceErr)
	}
}

// Every shipped scenario must run invariant-clean: packet conservation
// and causality at each port, monotonic event time, cwnd bounds, and
// timeout monotonicity.
func TestInvariantsCleanOnShippedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			cfg := loadScenario(t, path)
			cfg.Invariants = &tstore.CheckOptions{}
			requireClean(t, core.Run(cfg))
		})
	}
}

// A sharded run merges every region's independently-numbered event
// stream; the checker must intern locations by name or cross-region id
// collisions produce phantom conservation violations.
func TestInvariantsCleanShardedRun(t *testing.T) {
	cfg := loadScenario(t, "../../scenarios/chain-wave.json")
	cfg.Shards = 4
	cfg.Invariants = &tstore.CheckOptions{}
	requireClean(t, core.Run(cfg))
}

// Both §4 synchronization regimes of the fixed-window system (Figs. 8
// and 9): τ = 0.01 s puts windows 30/25 out of phase, τ = 1 s puts the
// same windows in phase. The invariants are regime-independent.
func TestInvariantsCleanBothPhaseModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		tau  time.Duration
	}{
		{"out-of-phase-small-pipe", 10 * time.Millisecond},
		{"in-phase-large-pipe", time.Second},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DumbbellConfig(tc.tau, 0 /* infinite buffers */)
			cfg.Conns = []core.ConnSpec{
				{SrcHost: 0, DstHost: 1, FixedWnd: 30, Start: -1},
				{SrcHost: 1, DstHost: 0, FixedWnd: 25, Start: -1},
			}
			cfg.Warmup = 50 * time.Second
			cfg.Duration = 200 * time.Second
			cfg.Invariants = &tstore.CheckOptions{}
			requireClean(t, core.Run(cfg))
		})
	}
}

// The checker only observes: every paper metric must be identical with
// invariants on and off.
func TestInvariantsLeaveMetricsIdentical(t *testing.T) {
	cfg := loadScenario(t, "../../scenarios/twoway-smallpipe.json")
	plain := core.Run(cfg)

	cfg = loadScenario(t, "../../scenarios/twoway-smallpipe.json")
	cfg.Invariants = &tstore.CheckOptions{}
	checked := core.Run(cfg)
	requireClean(t, checked)

	if !reflect.DeepEqual(plain.TrunkUtil, checked.TrunkUtil) {
		t.Errorf("TrunkUtil differs: %v vs %v", plain.TrunkUtil, checked.TrunkUtil)
	}
	if !reflect.DeepEqual(plain.Goodput, checked.Goodput) {
		t.Errorf("Goodput differs: %v vs %v", plain.Goodput, checked.Goodput)
	}
	if !reflect.DeepEqual(plain.Delivered, checked.Delivered) {
		t.Errorf("Delivered differs: %v vs %v", plain.Delivered, checked.Delivered)
	}
	if !reflect.DeepEqual(plain.Drops, checked.Drops) {
		t.Errorf("drop logs differ: %d vs %d drops", len(plain.Drops), len(checked.Drops))
	}
	if !reflect.DeepEqual(plain.SenderStats, checked.SenderStats) {
		t.Errorf("SenderStats differ: %+v vs %+v", plain.SenderStats, checked.SenderStats)
	}
}

// A deliberately corrupted stored trace — one event's queue length
// nudged — must be flagged by the offline pass with the offending
// event pinpointed.
func TestInvariantsFlagCorruptedStoredTrace(t *testing.T) {
	cfg := loadScenario(t, "../../scenarios/twoway-smallpipe.json")
	cfg.Warmup = 5 * time.Second
	cfg.Duration = 30 * time.Second

	var buf bytes.Buffer
	w := tstore.NewWriter(&buf, tstore.WriterOptions{})
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: w}}
	res := core.Run(cfg)
	if res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}

	s, err := tstore.NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	if err := s.Scan(tstore.Query{}, func(ev *obs.Event) error {
		events = append(events, *ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n, vio, err := tstore.Check(s, tstore.CheckOptions{})
	if err != nil || vio != nil {
		t.Fatalf("pristine store not clean: checked=%d vio=%v err=%v", n, vio, err)
	}

	// Corrupt one mid-trace Enqueue: its reported queue length can no
	// longer match what conservation implies.
	target := -1
	for i := len(events) / 2; i < len(events); i++ {
		if events[i].Type == obs.Enqueue {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no enqueue event in the second half of the trace")
	}
	events[target].Val += 3

	var corrupt bytes.Buffer
	cw := tstore.NewWriter(&corrupt, tstore.WriterOptions{})
	if err := cw.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Events(s.Locs(), events); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cs, err := tstore.NewStore(bytes.NewReader(corrupt.Bytes()), int64(corrupt.Len()))
	if err != nil {
		t.Fatal(err)
	}
	_, vio, err = tstore.Check(cs, tstore.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vio == nil {
		t.Fatal("corrupted trace passed the invariant check")
	}
	if vio.Rule != "conservation" {
		t.Fatalf("rule = %q, want conservation", vio.Rule)
	}
	if vio.Index != uint64(target) {
		t.Fatalf("violation at event %d, corrupted event %d", vio.Index, target)
	}
	if vio.Event.ID != events[target].ID {
		t.Fatalf("violation names packet %d, corrupted packet %d", vio.Event.ID, events[target].ID)
	}
}

// TestDropTailCapacities runs the "drop-tail-full" rule on real runs. A
// lossy line traces each loss as a Drop after the packet's Transmit,
// below a full buffer, so core leaves such ports out of the capacities
// it hands the checker: the run is clean. A capacity the caller states
// replaces core's, and one packet above the real buffer is caught at the
// first drop the bottleneck makes.
func TestDropTailCapacities(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := loadScenario(t, "../../scenarios/twoway-smallpipe.json")
		cfg.Shards = shards
		cfg.Behavior = &link.BehaviorSpec{Loss: 0.02}
		cfg.Invariants = &tstore.CheckOptions{}
		res := core.Run(cfg)
		requireClean(t, res)
		if len(res.Drops) == 0 {
			t.Fatalf("shards %d: a lossy run dropped nothing", shards)
		}

		cfg.Behavior = nil
		cfg.Invariants = &tstore.CheckOptions{Capacity: map[string]int{"sw0->sw1": cfg.Buffer + 1, "sw1->sw0": cfg.Buffer + 1}}
		res = core.Run(cfg)
		if res.Invariant == nil || res.Invariant.Rule != "drop-tail-full" || res.Invariant.Event.Val != float64(cfg.Buffer) {
			t.Errorf("shards %d: Invariant = %v, want drop-tail-full at a queue of %d", shards, res.Invariant, cfg.Buffer)
		}
	}
}

// Result.Cfg is the caller's configuration, normalized — not the one the
// run traced with. The checker sits before the caller's sink inside the
// build only: a kept Result does not hold it (and its per-port id tables)
// alive, res.Cfg.Obs.Trace.Sink is the sink the caller passed, and the
// caller's Invariants are read, not written. What the checker finds is
// reported as before, at shards 1 and 2.
func TestInvariantsLeaveResultCfgTheCallers(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := loadScenario(t, "../../scenarios/twoway-smallpipe.json")
		cfg.Shards = shards
		sink := obs.NewMemorySink()
		cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: sink}}
		cfg.Invariants = &tstore.CheckOptions{}
		res := core.Run(cfg)
		requireClean(t, res)
		if res.Cfg.Obs != cfg.Obs {
			t.Errorf("shards %d: Result.Cfg.Obs is not the caller's Options", shards)
		}
		if got := res.Cfg.Obs.Trace.Sink; got != obs.Sink(sink) {
			t.Errorf("shards %d: Result.Cfg.Obs.Trace.Sink is a %T, want the caller's MemorySink", shards, got)
		}
		if res.Cfg.Invariants != cfg.Invariants || cfg.Invariants.MaxCwnd != nil || cfg.Invariants.Capacity != nil {
			t.Errorf("shards %d: the caller's Invariants were replaced or written through", shards)
		}
		if sink.Len() == 0 {
			t.Errorf("shards %d: the caller's sink saw no event", shards)
		}

		// A bound no window can keep: the violation still comes back typed
		// and as the trace error, and the sink is still the caller's.
		cfg.Invariants = &tstore.CheckOptions{MaxCwnd: map[int]float64{1: 1}}
		res = core.Run(cfg)
		if res.Invariant == nil || res.Invariant.Rule != "cwnd-bounds" || !errors.Is(res.TraceErr, res.Invariant) {
			t.Errorf("shards %d: Invariant = %v, TraceErr = %v, want a cwnd-bounds violation in both", shards, res.Invariant, res.TraceErr)
		}
		if got := res.Cfg.Obs.Trace.Sink; got != obs.Sink(sink) {
			t.Errorf("shards %d, violated: Result.Cfg.Obs.Trace.Sink is a %T", shards, got)
		}
	}
}
