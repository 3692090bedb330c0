package core

// Diagnostics: run the paper's headline configurations and log
// the measured observables. These tests always pass; they exist to show
// the dynamics at a glance under `go test -v -run Probe`.

import (
	"testing"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

func dropsAfter(drops []trace.DropEvent, from time.Duration) []trace.DropEvent {
	var out []trace.DropEvent
	for _, d := range drops {
		if d.T >= from {
			out = append(out, d)
		}
	}
	return out
}

func probeTwoWay(t *testing.T, tau time.Duration, buffer int) *Result {
	t.Helper()
	cfg := DumbbellConfig(tau, buffer)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 200 * time.Second
	cfg.Duration = 800 * time.Second
	res := Run(cfg)

	epochs := analysis.Epochs(dropsAfter(res.Drops, cfg.Warmup), 10*time.Second)
	pat := analysis.ClassifyTwoConnDrops(epochs, 1, 2)
	qmode, qr := analysis.Phase(res.Q1(), res.Q2(), cfg.Warmup, cfg.Duration, time.Second)
	wmode, wr := analysis.Phase(res.Cwnd[0], res.Cwnd[1], cfg.Warmup, cfg.Duration, time.Second)
	comp := analysis.AckCompression(res.AckArrivals[0], cfg.DataTxTime(), cfg.Warmup)
	clus := analysis.Clustering(analysis.FilterDepartures(analysis.DeparturesFrom(res.TrunkDeps[0][0], cfg.Warmup), packet.Data))
	t.Logf("tau=%v B=%d: utilF=%.3f utilR=%.3f", tau, buffer, res.UtilForward(), res.UtilReverse())
	t.Logf("  epochs=%d singleEach=%d oneSided=%d altRate=%.2f dataFrac=%.4f",
		pat.Epochs, pat.SingleEach, pat.OneSided, pat.AlternationRate(), pat.DataDropFraction())
	t.Logf("  queue phase=%v (r=%.2f) cwnd phase=%v (r=%.2f)", qmode, qr, wmode, wr)
	t.Logf("  ack compression frac=%.3f minGap=%v clustering=%.3f",
		comp.CompressedFraction(), comp.MinGap, clus)
	t.Logf("  Q1 max=%v Q2 max=%v", res.Q1().Max(cfg.Warmup, cfg.Duration), res.Q2().Max(cfg.Warmup, cfg.Duration))
	for i, e := range epochs {
		if i >= 8 {
			break
		}
		t.Logf("  epoch at %v: %v", e.Start.Round(time.Second), e.LossByConn())
	}
	for k, evs := range res.Collapses {
		var dup, to int
		for _, ev := range evs {
			if ev.Cause == "dupack" {
				dup++
			} else {
				to++
			}
		}
		t.Logf("  conn %d collapses: dupack=%d timeout=%d", k+1, dup, to)
	}
	return res
}

func TestProbeTwoWaySmallPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	probeTwoWay(t, 10*time.Millisecond, 20)
}

func TestProbeTwoWayLargePipe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	probeTwoWay(t, time.Second, 20)
}

func TestProbeFixedWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	for _, tau := range []time.Duration{10 * time.Millisecond, time.Second} {
		cfg := DumbbellConfig(tau, 0) // infinite buffers
		cfg.Conns = []ConnSpec{
			{SrcHost: 0, DstHost: 1, FixedWnd: 30, Start: -1},
			{SrcHost: 1, DstHost: 0, FixedWnd: 25, Start: -1},
		}
		cfg.Warmup = 200 * time.Second
		cfg.Duration = 800 * time.Second
		res := Run(cfg)
		t.Logf("fixed wnd 30/25 tau=%v: utilF=%.3f utilR=%.3f Q1max=%v Q2max=%v",
			tau, res.UtilForward(), res.UtilReverse(),
			res.Q1().Max(cfg.Warmup, cfg.Duration), res.Q2().Max(cfg.Warmup, cfg.Duration))
		comp := analysis.AckCompression(res.AckArrivals[0], cfg.DataTxTime(), cfg.Warmup)
		t.Logf("  ack compression frac=%.3f minGap=%v", comp.CompressedFraction(), comp.MinGap)
		if len(res.Drops) != 0 {
			t.Errorf("drops with infinite buffers: %d", len(res.Drops))
		}
	}
}

func TestProbeOneWayLargePipe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	cfg := oneWayConfig(time.Second, 3)
	cfg.Warmup = 200 * time.Second
	cfg.Duration = 800 * time.Second
	res := Run(cfg)
	epochs := analysis.Epochs(dropsAfter(res.Drops, cfg.Warmup), 10*time.Second)
	t.Logf("one-way tau=1s: utilF=%.3f epochs=%d", res.UtilForward(), len(epochs))
	for i, e := range epochs {
		if i >= 5 {
			break
		}
		t.Logf("  epoch %d at %v: drops=%v", i, e.Start.Round(time.Second), e.LossByConn())
	}
	if len(epochs) >= 2 {
		period := (epochs[len(epochs)-1].Start - epochs[0].Start) / time.Duration(len(epochs)-1)
		t.Logf("  mean epoch period=%v", period.Round(time.Second))
	}
	clus := analysis.Clustering(analysis.FilterDepartures(analysis.DeparturesFrom(res.TrunkDeps[0][0], cfg.Warmup), packet.Data))
	t.Logf("  clustering=%.3f", clus)
}
