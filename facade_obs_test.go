package tahoedyn

// Facade-level observability tests: the obs-on-vs-off identity across
// every shipped scenario file, the error-returning run family, and
// sink sharing under the parallel runner (exercised by `go test -race`).

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tahoedyn/internal/packet"
)

// loadShippedScenario parses one scenarios/*.json file and shortens it
// so every file's identity check stays fast.
func loadShippedScenario(t *testing.T, path string) Config {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := ParseScenario(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 80 * time.Second
	return cfg
}

// assertSameRun compares the exported physics of two results.
func assertSameRun(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Events != b.Events {
		t.Fatalf("events = %d vs %d", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Drops, b.Drops) {
		t.Fatalf("drop logs differ: %d vs %d", len(a.Drops), len(b.Drops))
	}
	if !reflect.DeepEqual(a.TrunkDeps, b.TrunkDeps) {
		t.Fatal("trunk departure logs differ")
	}
	if !reflect.DeepEqual(a.TrunkUtil, b.TrunkUtil) {
		t.Fatalf("utilization = %v vs %v", a.TrunkUtil, b.TrunkUtil)
	}
	if !reflect.DeepEqual(a.Delivered, b.Delivered) {
		t.Fatalf("delivered = %v vs %v", a.Delivered, b.Delivered)
	}
	if !reflect.DeepEqual(a.SenderStats, b.SenderStats) {
		t.Fatal("sender stats differ")
	}
}

// TestObsIdentityAcrossShippedScenarios runs every scenario file the
// repository ships, with and without the full observability stack, and
// asserts the physics is identical. This is the user-facing face of the
// never-perturb contract: whatever scenario a user traces, the trace is
// of the same run they would have had without it.
func TestObsIdentityAcrossShippedScenarios(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("found %d shipped scenarios, want at least 5", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			plain := loadShippedScenario(t, path)
			observed := loadShippedScenario(t, path)
			sink := NewMemorySink()
			var samples atomic.Int64
			observed.Obs = &ObsOptions{
				Trace:   &TraceOptions{Sink: sink},
				Metrics: true,
				Progress: &Progress{
					Every: 10 * time.Second,
					Fn:    func(ProgressSnapshot) { samples.Add(1) },
				},
			}
			resObs, err := RunE(observed)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, Run(plain), resObs)
			if resObs.TraceErr != nil {
				t.Fatalf("TraceErr = %v", resObs.TraceErr)
			}
			if sink.Len() == 0 || samples.Load() == 0 || resObs.Metrics == nil {
				t.Fatalf("observability inert: events=%d samples=%d metrics=%v",
					sink.Len(), samples.Load(), resObs.Metrics != nil)
			}
		})
	}
}

// TestStoredTransmitsAreTheTrunkDepartures holds the trace store to the
// §4.2 chronology of Fig. 8's fixed-window run: over [300 s, 305 s) the
// transmit events stored at each trunk port are that port's departure
// log (Result.TrunkDeps), departure for departure — time, connection,
// kind and sequence number. So `tahoe-sim -trace-store` plus
// `tahoe-query -events -filter type=transmit` prints the timeline.
func TestStoredTransmitsAreTheTrunkDepartures(t *testing.T) {
	f, err := os.Open("scenarios/fixed-window-fig8.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := ParseScenario(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig8.tobc")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cfg.Obs = &ObsOptions{Trace: &TraceOptions{Sink: NewTraceStoreSink(out, TraceStoreOptions{})}}
	res, err := RunE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := OpenTraceStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	transmit, err := ParseTraceFilter("type=transmit")
	if err != nil {
		t.Fatal(err)
	}

	type departure struct {
		T         time.Duration
		Conn, Seq int
		Kind      packet.Kind
	}
	from, to := 300*time.Second, 305*time.Second
	for dir, loc := range []string{"sw0->sw1", "sw1->sw0"} {
		var want []departure
		for _, d := range res.TrunkDeps[0][dir] {
			if d.T >= from && d.T < to {
				want = append(want, departure{d.T, d.Conn(), int(d.Seq), d.Kind()})
			}
		}
		var got []departure
		q := TraceQuery{From: from, To: to, Filter: transmit, Loc: loc}
		if err := store.Scan(q, func(ev *TraceEvent) error {
			got = append(got, departure{ev.T, int(ev.Conn), int(ev.Seq), ev.Kind})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no departures in [%v, %v)", loc, from, to)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d stored transmits differ from %d trunk departures\nstored: %v\nlog:    %v",
				loc, len(got), len(want), got, want)
		}
	}
}

// TestRunManyEAggregatesErrors pins the sweep-facing error contract:
// slots stay positional, bad configs come back as indexed errors, and
// good configs still run.
func TestRunManyEAggregatesErrors(t *testing.T) {
	good := Dumbbell(10*time.Millisecond, 20)
	good.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: -1}}
	good.Warmup = 5 * time.Second
	good.Duration = 20 * time.Second
	bad := good
	bad.Conns = []ConnSpec{{SrcHost: 0, DstHost: 99, Start: -1}}

	results, err := RunManyE(context.Background(), 2, []Config{good, bad, good})
	if err == nil {
		t.Fatal("RunManyE swallowed the bad config")
	}
	if !strings.Contains(err.Error(), "config 1") {
		t.Fatalf("error does not index the bad config: %v", err)
	}
	if len(results) != 3 || results[0] == nil || results[1] != nil || results[2] == nil {
		t.Fatalf("results = %v", results)
	}
	assertSameRun(t, results[0], results[2])

	// Cancellation: a pre-canceled context skips every run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err = RunManyE(ctx, 2, []Config{good, good})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("result %d survived cancellation", i)
		}
	}
}

// TestSharedSinkUnderRunMany shares one MemorySink across a parallel
// RunMany. Under `go test -race` this pins the sink contract for a
// shared sink; in any mode the sink must end up holding exactly the
// events of the same four runs traced alone, and must have seen each
// run's Begin and Close.
func TestSharedSinkUnderRunMany(t *testing.T) {
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfg := Dumbbell(10*time.Millisecond, 20)
		cfg.Seed = int64(i + 1)
		cfg.Conns = []ConnSpec{
			{SrcHost: 0, DstHost: 1, Start: -1},
			{SrcHost: 1, DstHost: 0, Start: -1},
		}
		cfg.Warmup = 5 * time.Second
		cfg.Duration = 25 * time.Second
		cfgs[i] = cfg
	}
	// An event keyed by its location's name: the shared sink interns
	// the names of four runs into one table, in whatever order they came.
	type named struct {
		loc string
		ev  TraceEvent
	}
	want := map[named]int{}
	for _, cfg := range cfgs {
		alone := NewMemorySink()
		cfg.Obs = &ObsOptions{Trace: &TraceOptions{Sink: alone, RingSize: 256}}
		if res := Run(cfg); res.TraceErr != nil {
			t.Fatal(res.TraceErr)
		}
		locs, events := alone.Snapshot()
		for _, ev := range events {
			name := locs[ev.Loc]
			ev.Loc = 0
			want[named{name, ev}]++
		}
	}

	sink := NewMemorySink()
	for i := range cfgs {
		cfgs[i].Obs = &ObsOptions{Trace: &TraceOptions{Sink: sink, RingSize: 256}}
	}
	for i, res := range RunMany(4, cfgs) {
		if res.TraceErr != nil {
			t.Fatalf("run %d: TraceErr = %v", i, res.TraceErr)
		}
	}
	if begun, closed := sink.Lifecycle(); begun != len(cfgs) || closed != len(cfgs) {
		t.Fatalf("shared sink saw %d Begin and %d Close calls, want %d of each", begun, closed, len(cfgs))
	}
	locs, events := sink.Snapshot()
	if len(events) < 1000 {
		t.Fatalf("shared sink saw only %d events", len(events))
	}
	for _, ev := range events {
		name := locs[ev.Loc]
		ev.Loc = 0
		k := named{name, ev}
		if want[k] == 0 {
			t.Fatalf("shared sink holds %+v at %s, which no run traced alone (or traced fewer times)", ev, name)
		}
		want[k]--
	}
	for k, n := range want {
		if n != 0 {
			t.Fatalf("shared sink is missing %d of %+v at %s", n, k.ev, k.loc)
		}
	}
}

// TestExperimentObserver pins the satellite wiring: an Observer set on
// ExpOptions receives samples from the simulations an experiment runs,
// without changing the outcome.
func TestExperimentObserver(t *testing.T) {
	var samples atomic.Int64
	opts := ExpOptions{Scale: 0.2, Observer: &Progress{
		Every: 10 * time.Second,
		Fn:    func(ProgressSnapshot) { samples.Add(1) },
	}}
	out, err := Experiment("oneway-smallpipe", opts)
	if err != nil {
		t.Fatal(err)
	}
	if samples.Load() == 0 {
		t.Fatal("Observer never fired")
	}
	plain, err := Experiment("oneway-smallpipe", ExpOptions{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Metrics, plain.Metrics) {
		t.Fatal("Observer changed the experiment's metrics")
	}
}
