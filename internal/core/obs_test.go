package core

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/obs"
)

// fullObs returns an Options enabling every observability feature:
// tracing into a fresh memory sink, the metrics registry, and a
// progress observer on both axes.
func fullObs() (*obs.Options, *obs.MemorySink, *int) {
	sink := obs.NewMemorySink()
	samples := new(int)
	return &obs.Options{
		Trace:   &obs.TraceOptions{Sink: sink, RingSize: 512},
		Metrics: true,
		Progress: &obs.Progress{
			Every:       10 * time.Second,
			EveryEvents: 5000,
			Fn:          func(obs.Snapshot) { *samples++ },
		},
	}, sink, samples
}

// TestObsRunsAreByteIdentical is the never-perturb contract: a run with
// the full observability stack on — tracing, metrics, progress — is
// byte-identical to the same run with it off, in both paper phase modes
// and on a multi-bottleneck topology.
func TestObsRunsAreByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"fig4-5-out-of-phase", func() Config { return twoWay(10 * time.Millisecond) }},
		{"fig6-7-in-phase", func() Config { return twoWay(time.Second) }},
		{"parking-lot-multibottleneck", parkingLotShort},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.cfg()
			observed := tc.cfg()
			opts, sink, samples := fullObs()
			observed.Obs = opts
			resObs := Run(observed)
			assertRunsIdentical(t, Run(plain), resObs)
			if resObs.TraceErr != nil {
				t.Fatalf("TraceErr = %v", resObs.TraceErr)
			}
			if sink.Len() == 0 {
				t.Fatal("trace sink saw no events")
			}
			if begun, closed := sink.Lifecycle(); begun != 1 || closed != 1 {
				t.Fatalf("sink lifecycle: begun=%d closed=%d, want 1, 1", begun, closed)
			}
			if *samples == 0 {
				t.Fatal("progress observer never fired")
			}
			if resObs.Metrics == nil {
				t.Fatal("Result.Metrics is nil with Obs.Metrics set")
			}
		})
	}
}

// TestObsTraceStreamConsistency cross-checks the trace stream against
// the run's own logs: every recorded drop appears as a Drop event, and
// filtering to one connection keeps only that connection.
func TestObsTraceStreamConsistency(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	sink := obs.NewMemorySink()
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: sink}}
	res := Run(cfg)
	_, events := sink.Snapshot()
	var drops, cwnds, delivers int
	for _, ev := range events {
		switch ev.Type {
		case obs.Drop:
			drops++
		case obs.CwndChange:
			cwnds++
		case obs.Deliver:
			delivers++
		}
	}
	if drops != len(res.Drops) {
		t.Fatalf("trace saw %d drops, result logged %d", drops, len(res.Drops))
	}
	if cwnds == 0 || delivers == 0 {
		t.Fatalf("trace missing event types: cwnd=%d deliver=%d", cwnds, delivers)
	}

	filtered := twoWay(10 * time.Millisecond)
	fsink := obs.NewMemorySink()
	filtered.Obs = &obs.Options{Trace: &obs.TraceOptions{
		Sink:   fsink,
		Filter: obs.Filter{Conn: 2, Types: 1 << obs.CwndChange},
	}}
	fres := Run(filtered)
	assertRunsIdentical(t, res, fres)
	_, fevents := fsink.Snapshot()
	if len(fevents) == 0 {
		t.Fatal("filtered trace is empty")
	}
	for _, ev := range fevents {
		if ev.Conn != 2 || ev.Type != obs.CwndChange {
			t.Fatalf("filter leaked event %+v", ev)
		}
	}
}

// TestObsMetricsExported checks the registry contents against the
// Result's own counters and that both renderers produce output.
func TestObsMetricsExported(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Obs = &obs.Options{Metrics: true}
	res := Run(cfg)
	m := res.Metrics
	if m == nil {
		t.Fatal("Result.Metrics is nil")
	}
	var text bytes.Buffer
	if err := m.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"core/events", "link/drops", "tcp/data-sent",
		"queue/sw0->sw1", "rtt-seconds/conn1", "ack-gap-seconds/conn2",
		"util/sw0->sw1", "cwnd-final/conn1", "epoch-seconds",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text render missing %q", want)
		}
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"name":"core/events","value":`) {
		t.Fatalf("JSON render missing counters: %s", js.String())
	}
	// The exported counters must agree with the Result.
	wantPairs := []struct {
		name string
		want float64
	}{
		{"core/events", float64(res.Events)},
		{"link/drops", float64(len(res.Drops))},
	}
	for _, p := range wantPairs {
		if !strings.Contains(js.String(), `{"name":"`+p.name+`","value":`+trimFloat(p.want)+`}`) {
			t.Errorf("%s does not render as %v:\n%s", p.name, p.want, js.String())
		}
	}
}

// TestRunEReturnsErrors pins the error-returning facade: invalid
// configurations come back as errors, never panics, and a valid config
// produces the same Result RunE or Run.
func TestRunEReturnsErrors(t *testing.T) {
	bad := twoWay(10 * time.Millisecond)
	bad.Conns[1].DstHost = 99
	if _, err := RunE(bad); err == nil {
		t.Fatal("RunE accepted an out-of-range host")
	} else if !strings.Contains(err.Error(), "core:") {
		t.Fatalf("error lost its package prefix: %v", err)
	}

	negative := twoWay(10 * time.Millisecond)
	negative.TrunkBandwidth = -1
	if _, err := RunE(negative); err == nil {
		t.Fatal("RunE accepted a negative bandwidth")
	}

	noSink := twoWay(10 * time.Millisecond)
	noSink.Obs = &obs.Options{Trace: &obs.TraceOptions{}}
	if _, err := RunE(noSink); err == nil {
		t.Fatal("RunE accepted Obs.Trace without a Sink")
	}

	good := twoWay(10 * time.Millisecond)
	res, err := RunE(good)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsIdentical(t, Run(twoWay(10*time.Millisecond)), res)
}

// TestRunContextCancelAndResume pins the cancellation contract: a
// canceled run stops promptly without finalizing, the Sim stays
// resumable, and resuming completes to a Result byte-identical to an
// uninterrupted run — so cancellation cannot have corrupted pool or
// measurement state.
func TestRunContextCancelAndResume(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
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
	// Resume to completion and compare against an uninterrupted run of
	// the same configuration (observability stripped on the reference;
	// the identity tests above cover obs-on-vs-off separately).
	resumed, err := s.FinishContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertRunsIdentical(t, Run(twoWay(10*time.Millisecond)), resumed)
}

// TestRunContextCanceledBeforeStart returns immediately without
// executing any events.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, twoWay(10*time.Millisecond)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// trimFloat formats integer-valued counters the way the metrics
// renderers do (no decimal point).
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// tableSink keeps the location table of the last batch it was handed —
// the emitting tracer's whole table, silent locations included.
type tableSink struct{ locs []string }

func (s *tableSink) Begin() error { return nil }
func (s *tableSink) Close() error { return nil }
func (s *tableSink) Events(locs []string, _ []obs.Event) error {
	s.locs = locs
	return nil
}

// TestTracedBuildLocationLimit pins the edge of the 16-bit location id
// space: a traced dumbbell with exactly 65 536 locations (ports, hosts,
// one per connection) builds, runs, and interns 65 536 distinct names;
// one connection more is refused by BuildE with an error naming the
// limit, where it used to alias the extra location to id 0.
func TestTracedBuildLocationLimit(t *testing.T) {
	traced := func(conns int) (Config, *tableSink) {
		cfg := DumbbellConfig(10*time.Millisecond, DefaultBuffer)
		cfg.Conns = make([]ConnSpec, conns)
		for i := range cfg.Conns {
			cfg.Conns[i] = ConnSpec{SrcHost: i % 2, DstHost: 1 - i%2, Start: time.Duration(i) * time.Millisecond}
		}
		cfg.MeasureTrunks, cfg.MeasureConns = []int{}, []int{}
		cfg.Warmup, cfg.Duration = time.Second, 2*time.Second
		sink := &tableSink{}
		cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: sink}}
		return cfg, sink
	}
	// Everything but the connections: learn it from a one-connection run.
	cfg, sink := traced(1)
	if res := Run(cfg); res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}
	fixed := len(sink.locs) - 1
	const limit = 1 << 16

	cfg, sink = traced(limit - fixed)
	sm, err := BuildE(cfg)
	if err != nil {
		t.Fatalf("a run with exactly %d locations was refused: %v", limit, err)
	}
	sm.RunUntil(cfg.Duration)
	if res := sm.Finish(); res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}
	distinct := make(map[string]bool, limit)
	for _, name := range sink.locs {
		distinct[name] = true
	}
	if len(sink.locs) != limit || len(distinct) != limit {
		t.Fatalf("at the limit the tracer interned %d locations, %d distinct; want %d of each", len(sink.locs), len(distinct), limit)
	}

	cfg, _ = traced(limit - fixed + 1)
	if _, err := BuildE(cfg); err == nil || !strings.Contains(err.Error(), "65536 locations") {
		t.Fatalf("a run with %d locations: BuildE error %v, want one naming the 65536-location limit", limit+1, err)
	}
}
