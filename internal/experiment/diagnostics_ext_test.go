package experiment

// Probes for the extension experiments (Reno, Random Drop, unequal RTT).

import (
	"testing"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
	"tahoedyn/internal/packet"
)

func TestProbeRenoTwoWay(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	for _, tau := range []time.Duration{10 * time.Millisecond, time.Second} {
		cfg := twoWayConfig(Options{Seed: 1}, tau, core.DefaultBuffer)
		for i := range cfg.Conns {
			cfg.Conns[i].Reno = true
		}
		res := core.Run(cfg)
		qmode, qr := queuePhase(res)
		comp := compression(res, 0)
		var fr, to uint64
		for _, st := range res.SenderStats {
			fr += st.FastRetransmits
			to += st.Timeouts
		}
		t.Logf("reno tau=%v: util=%.3f/%.3f qphase=%v(%.2f) comp=%.2f fastrtx=%d timeouts=%d",
			tau, res.UtilForward(), res.UtilReverse(), qmode, qr,
			comp.CompressedFraction(), fr, to)
	}
}

func TestProbeRandomDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	for _, disc := range []string{link.PolicyDropTail, link.PolicyRandomDrop} {
		// One-way, 3 connections: compare loss synchronization and
		// fairness.
		cfg := oneWayConfig(Options{Seed: 1}, time.Second, core.DefaultBuffer, 3)
		cfg.Queue = &link.QueueSpec{Policy: disc}
		res := core.Run(cfg)
		epochs := measuredEpochs(res, 10*time.Second)
		allThree := 0
		for _, e := range epochs {
			if len(e.LossByConn()) == 3 {
				allThree++
			}
		}
		t.Logf("oneway disc=%v: util=%.3f jain=%.4f epochs=%d allThreeLose=%d",
			disc, res.UtilForward(), analysis.JainIndex(res.Goodput), len(epochs), allThree)

		// Two-way small pipe.
		cfg2 := twoWayConfig(Options{Seed: 1}, 10*time.Millisecond, core.DefaultBuffer)
		cfg2.Queue = &link.QueueSpec{Policy: disc}
		res2 := core.Run(cfg2)
		acks := 0
		for _, d := range dropsAfter(res2.Drops, cfg2.Warmup) {
			if d.Kind == packet.Ack {
				acks++
			}
		}
		t.Logf("twoway disc=%v: util=%.3f jain=%.4f ackdrops=%d",
			disc, res2.UtilForward(), analysis.JainIndex(res2.Goodput), acks)
	}
}

func TestProbeUnequalRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	for _, extra := range []time.Duration{0, 100 * time.Millisecond, 400 * time.Millisecond} {
		cfg := oneWayConfig(Options{Seed: 1}, time.Second, core.DefaultBuffer, 3)
		cfg.Conns[1].ExtraDelay = extra
		cfg.Conns[2].ExtraDelay = 2 * extra
		res := core.Run(cfg)
		clus := dataClustering(res, 0, 0)
		t.Logf("extra=%v: clustering=%.3f util=%.3f jain=%.4f goodput=%v",
			extra, clus, res.UtilForward(), analysis.JainIndex(res.Goodput), res.Goodput)
	}
}
