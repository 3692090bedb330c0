package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/plot"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
)

// twoWay is the §4 two-way dumbbell at reduced duration, enough to cross
// several congestion epochs in both phase modes.
func twoWay(tau time.Duration) Config {
	cfg := DumbbellConfig(tau, DefaultBuffer)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 80 * time.Second
	return cfg
}

// parkingLotShort is a multi-bottleneck configuration: the classic
// 3-hop parking lot — one long connection across every trunk against
// one single-hop cross connection per trunk — at reduced duration.
func parkingLotShort() Config {
	g := topology.ParkingLot(3)
	cfg := Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     DefaultBuffer,
		Seed:       1,
	}
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 3, Start: -1},
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 2, Start: -1},
		{SrcHost: 2, DstHost: 3, Start: -1},
	}
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 80 * time.Second
	return cfg
}

// tsvOf renders the run's headline series — every trunk queue in both
// directions and every congestion window — exactly as the figure
// pipeline would.
func tsvOf(t *testing.T, res *Result) string {
	t.Helper()
	var series []*trace.Series
	for i := range res.TrunkQueue {
		series = append(series, res.TrunkQueue[i][0], res.TrunkQueue[i][1])
	}
	series = append(series, res.Cwnd...)
	var sb strings.Builder
	err := plot.TSV(&sb, res.MeasureFrom, res.MeasureTo, 100*time.Millisecond, series...)
	if err != nil {
		t.Fatalf("TSV: %v", err)
	}
	return sb.String()
}

// assertRunsIdentical asserts two runs produced the same physics:
// byte-identical plot output and identical traces, drop logs, stats,
// and event counts.
func assertRunsIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if got, want := tsvOf(t, a), tsvOf(t, b); got != want {
		t.Fatal("TSV output differs")
	}
	if !reflect.DeepEqual(a.Drops, b.Drops) {
		t.Fatalf("drop logs differ: %d vs %d events", len(a.Drops), len(b.Drops))
	}
	if !reflect.DeepEqual(a.TrunkDeps, b.TrunkDeps) {
		t.Fatal("trunk departure logs differ")
	}
	if !reflect.DeepEqual(a.SenderStats, b.SenderStats) ||
		!reflect.DeepEqual(a.ReceiverStats, b.ReceiverStats) {
		t.Fatal("endpoint stats differ")
	}
	if !reflect.DeepEqual(a.Delivered, b.Delivered) {
		t.Fatalf("delivered = %v vs %v", a.Delivered, b.Delivered)
	}
	if !reflect.DeepEqual(a.TrunkUtil, b.TrunkUtil) {
		t.Fatalf("utilization = %v vs %v", a.TrunkUtil, b.TrunkUtil)
	}
	if a.Events != b.Events {
		t.Fatalf("events = %d vs %d", a.Events, b.Events)
	}
	for k := range a.RTT {
		if !seriesEqual(a.RTT[k], b.RTT[k]) {
			t.Fatalf("RTT series %d differ", k)
		}
	}
}

// Pooling must be invisible to the physics: a pooled run and a
// noPool run of the same configuration produce byte-identical plot
// output and identical traces, drop logs, stats, and event counts.
// This covers both paper modes — out-of-phase (Figs. 4–5, τ=10 ms) and
// in-phase (Figs. 6–7, τ=1 s) — plus a multi-bottleneck parking-lot
// topology run.
func TestPooledRunsAreByteIdentical(t *testing.T) {
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
			pooled := tc.cfg()
			plain := tc.cfg()
			plain.noPool = true
			assertRunsIdentical(t, Run(pooled), Run(plain))
		})
	}
}

// seriesEqual compares two trace series point by point.
func seriesEqual(a, b *trace.Series) bool {
	return reflect.DeepEqual(a.Points, b.Points)
}
