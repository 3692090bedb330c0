package experiment

import (
	"testing"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

func TestProbeFairQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	// Two-way 1+1 small pipe: FIFO vs FQ.
	for _, disc := range []string{link.PolicyDropTail, link.PolicyFairQueue} {
		cfg := twoWayConfig(Options{Seed: 1}, 10*time.Millisecond, core.DefaultBuffer)
		cfg.Queue = &link.QueueSpec{Policy: disc}
		res := core.Run(cfg)
		comp := compression(res, 0)
		rises := analysis.RapidRises(res.Q1(), res.MeasureFrom, res.MeasureTo, res.Cfg.DataTxTime(), 4)
		t.Logf("twoway disc=%v: util=%.3f/%.3f comp=%.2f rises=%d jain=%.4f drops=%d",
			disc, res.UtilForward(), res.UtilReverse(), comp.CompressedFraction(), rises,
			analysis.JainIndex(res.Goodput), len(dropsAfter(res.Drops, cfg.Warmup)))
	}
	// One-way unequal RTT: FIFO vs FQ fairness.
	for _, disc := range []string{link.PolicyDropTail, link.PolicyFairQueue} {
		cfg := oneWayConfig(Options{Seed: 1}, time.Second, core.DefaultBuffer, 3)
		cfg.Queue = &link.QueueSpec{Policy: disc}
		cfg.Conns[1].ExtraDelay = 400 * time.Millisecond
		cfg.Conns[2].ExtraDelay = 800 * time.Millisecond
		res := core.Run(cfg)
		t.Logf("oneway-unequal disc=%v: util=%.3f jain=%.4f goodput=%v",
			disc, res.UtilForward(), analysis.JainIndex(res.Goodput), res.Goodput)
	}
}
