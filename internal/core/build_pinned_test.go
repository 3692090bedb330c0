package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/trace"
	"tahoedyn/internal/tstore"
)

// pinnedBuildConfig is one hostile-but-valid scenario that passes
// through every build phase at once: an explicit topology (a 6-ring with
// per-link parameters), per-link queue and behaviour overrides over
// global ones, seeded RED and random-drop, a CBR and an on/off source
// among TCP connections, an ExtraDelay path, shared-RNG start draws mixed
// with fixed starts, partial measurement gating, and link events out of
// time order — a bandwidth step, a down, its restore, two at one instant —
// with tracing, metrics and the invariant checker on.
func pinnedBuildConfig(shards int, sink obs.Sink) Config {
	g := ring(6)
	g.Links[2].Bandwidth = 80_000
	g.Links[4].Buffer = 8
	g.Links[5].Delay = 25 * time.Millisecond
	return Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     12,
		Queue:      &link.QueueSpec{Policy: link.PolicyRED, MinTh: 4, MaxTh: 10, MaxP: 0.2, Wq: 0.05},
		LinkQueue: map[int]*link.QueueSpec{
			0: {Policy: link.PolicyRED, MinTh: 3, MaxTh: 9, MaxP: 0.1, Wq: 0.02},
			3: {Policy: link.PolicyRandomDrop},
			4: {Policy: link.PolicyDropTail},
		},
		Behavior: &link.BehaviorSpec{Loss: 0.001},
		LinkBehavior: map[int]*link.BehaviorSpec{
			1: {Loss: 0.002, Jitter: 2 * time.Millisecond},
			5: {}, // an ideal line under a lossy default
		},
		Conns: []ConnSpec{
			{SrcHost: 0, DstHost: 3, Start: -1},
			{SrcHost: 1, DstHost: 4, Start: -1, Source: &SourceSpec{Kind: SourceCBR, Rate: 12_000}},
			{SrcHost: 3, DstHost: 0, Start: 500 * time.Millisecond, ExtraDelay: 30 * time.Millisecond},
			{SrcHost: 2, DstHost: 5, Start: -1, Reno: true, DelayedAck: true},
			{SrcHost: 5, DstHost: 2, Start: time.Second, Source: &SourceSpec{
				Kind: SourceOnOff, Rate: 30_000, Size: 200, OnMean: 400 * time.Millisecond, OffMean: 900 * time.Millisecond}},
			{SrcHost: 4, DstHost: 1, Start: -1, FixedWnd: 6},
		},
		Events: []LinkEvent{
			{T: 35 * time.Second, Link: 0, Bandwidth: DefaultTrunkBandwidth}, // the restore: link 0 back at its rate
			{T: 15 * time.Second, Link: 1, Bandwidth: 20_000},
			{T: 20 * time.Second, Link: 0, Down: true},
			{T: 35 * time.Second, Link: 3, Bandwidth: 90_000},
		},
		MeasureTrunks: []int{0, 1, 3},
		MeasureConns:  []int{0, 2, 3, 4},
		Seed:          7,
		StartSpread:   2 * time.Second,
		Warmup:        5 * time.Second,
		Duration:      60 * time.Second,
		Shards:        shards,
		Obs:           &obs.Options{Trace: &obs.TraceOptions{Sink: sink, RingSize: 512}, Metrics: true},
		Invariants:    &tstore.CheckOptions{},
	}
}

// resultDigest hashes everything a run produced: every series, log and
// statistic of the Result and its metrics registry, but for the pool/*
// counters, which count what a warm arena spared the run.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	series := func(s *trace.Series) {
		if s == nil {
			fmt.Fprintln(h, "nil")
			return
		}
		fmt.Fprintln(h, s.Name, s.Points)
	}
	// A departure log is written field by field, in the text the 32-byte
	// struct of f1d4d08 printed as, so that the digests do not depend on
	// how a Departure is laid out.
	departures := func(deps []trace.Departure) {
		fmt.Fprint(h, "[")
		for j, d := range deps {
			if j > 0 {
				fmt.Fprint(h, " ")
			}
			fmt.Fprintf(h, "{%v %d %v %d}", d.T, d.Conn(), d.Kind(), d.Seq)
		}
		fmt.Fprintln(h, "]")
	}
	for i := range res.TrunkQueue {
		for dir := range res.TrunkQueue[i] {
			series(res.TrunkQueue[i][dir])
			departures(res.TrunkDeps[i][dir])
		}
	}
	for k := range res.Cwnd {
		series(res.Cwnd[k])
		series(res.RTT[k])
		fmt.Fprintln(h, res.AckArrivals[k], res.Collapses[k])
	}
	fmt.Fprintln(h, res.TrunkUtil, res.Drops, res.SenderStats, res.ReceiverStats, res.Delivered, res.Goodput)
	fmt.Fprintln(h, res.MeasureFrom, res.MeasureTo, res.Events, res.TraceErr, res.Invariant)
	var text bytes.Buffer
	if err := res.Metrics.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(text.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(" pool/")) {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceDigest hashes the traced event stream: the location table, then
// each event on a line of its own.
func traceDigest(t *testing.T, sink *obs.MemorySink) string {
	t.Helper()
	h := sha256.New()
	locs, events := sink.Snapshot()
	if len(events) == 0 {
		t.Fatal("the run traced no events")
	}
	fmt.Fprintln(h, locs)
	for _, ev := range events {
		fmt.Fprintln(h, ev)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildOrderPinned holds the order in which a run is assembled — the
// start draws on the shared RNG, the engine seq of the pre-scheduled link
// events, the entity index behind every per-port seed — to SHA-256
// digests of the whole Result and of the traced stream. The Result
// digests were taken on f1d4d08, where buildE was one function, before
// it was split into phases; the stream's, on 284bfe3, when it stopped
// being hashed as JSON lines (the stream had not moved since f1d4d08).
// They must come out on a fresh arena and as the third run of a reused
// one. Pinned per shard count: whole-Result identity across
// shard counts is ROADMAP item 1 and is not asserted here.
func TestBuildOrderPinned(t *testing.T) {
	for _, pin := range []struct {
		shards        int
		result, trace string
	}{
		{1, "8d86c87b1421a0973d57a25198586bd48c20f0aaa86580e2c4550c723de401d7", "8ca9eea5e0b9dab6871a22ca981796e37e18d0e5c6cc9c05928b476771a6a770"},
		{2, "8d86c87b1421a0973d57a25198586bd48c20f0aaa86580e2c4550c723de401d7", "cd157b3507795a9338b92349d4d300cd6735469815af94a3311393cac375b38d"},
	} {
		t.Run(fmt.Sprintf("shards=%d", pin.shards), func(t *testing.T) {
			reused := NewArena()
			for run, ar := range []*Arena{NewArena(), reused, reused, reused} {
				sink := obs.NewMemorySink()
				s, err := ar.BuildE(pinnedBuildConfig(pin.shards, sink))
				if err != nil {
					t.Fatal(err)
				}
				if got := len(s.engs); got != pin.shards {
					t.Fatalf("the run has %d regions, want %d", got, pin.shards)
				}
				res := s.Finish()
				if res.Invariant != nil || res.TraceErr != nil {
					t.Fatalf("run %d: invariant %v, trace error %v", run, res.Invariant, res.TraceErr)
				}
				if len(res.Drops) == 0 || res.Goodput[1] == 0 || res.Goodput[4] == 0 {
					t.Fatalf("run %d: %d drops, source goodput %d and %d: the scenario is not exercising what it names",
						run, len(res.Drops), res.Goodput[1], res.Goodput[4])
				}
				if got := resultDigest(t, res); got != pin.result {
					t.Errorf("run %d: Result sha256 %s, want %s", run, got, pin.result)
				}
				if got := traceDigest(t, sink); got != pin.trace {
					t.Errorf("run %d: trace sha256 %s, want %s", run, got, pin.trace)
				}
			}
		})
	}
}
