package experiment

// Exploratory probes for band tuning. Always pass; run with -v.

import (
	"testing"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/trace"
)

func TestProbeDelayedAckMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	for _, tau := range []time.Duration{10 * time.Millisecond, time.Second} {
		for _, maxWnd := range []int{8, 1000} {
			for _, delayed := range []bool{false, true} {
				cfg := twoWayConfig(Options{Seed: 1}, tau, core.DefaultBuffer)
				for i := range cfg.Conns {
					cfg.Conns[i].DelayedAck = delayed
					cfg.Conns[i].MaxWnd = maxWnd
				}
				res := core.Run(cfg)
				run := analysis.MeanRunLength(analysis.DeparturesFrom(res.TrunkDeps[0][0], res.MeasureFrom))
				comp := compression(res, 0)
				t.Logf("tau=%v maxwnd=%d delayed=%v: allRun=%.1f comp=%.2f drops=%d util=%.2f",
					tau, maxWnd, delayed, run, comp.CompressedFraction(),
					len(dropsAfter(res.Drops, res.MeasureFrom)), res.UtilForward())
			}
		}
	}
}

func TestProbeZeroAckCases(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	cases := []struct {
		tau    time.Duration
		w1, w2 int
	}{
		{time.Second, 60, 20},
		{time.Second, 55, 20},
		{time.Second, 30, 25},
		{time.Second, 40, 30},
		{10 * time.Millisecond, 30, 25},
		{10 * time.Millisecond, 40, 20},
		{10 * time.Millisecond, 25, 25},
	}
	for _, c := range cases {
		cfg := fixedWindowConfig(Options{Seed: 1}, c.tau, c.w1, c.w2)
		cfg.AckSize = 0
		cfg.Warmup = 200 * time.Second
		cfg.Duration = 600 * time.Second
		res := core.Run(cfg)
		for _, grid := range []time.Duration{80 * time.Millisecond, time.Second} {
			r := trace.Correlate(res.Q1(), res.Q2(), res.MeasureFrom, res.MeasureTo, grid)
			t.Logf("tau=%v W=%d/%d grid=%v: corr=%.2f", c.tau, c.w1, c.w2, grid, r)
		}
		emptyFrac := func(s *trace.Series) float64 {
			vals := s.Sample(res.MeasureFrom, res.MeasureTo, 40*time.Millisecond)
			n := 0
			for _, v := range vals {
				if v == 0 {
					n++
				}
			}
			return float64(n) / float64(len(vals))
		}
		t.Logf("   utils %.3f/%.3f Qmax %.0f/%.0f empty-frac %.2f/%.2f",
			res.UtilForward(), res.UtilReverse(),
			res.Q1().Max(res.MeasureFrom, res.MeasureTo), res.Q2().Max(res.MeasureFrom, res.MeasureTo),
			emptyFrac(res.Q1()), emptyFrac(res.Q2()))
	}
}

func TestProbeBufferSweepIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	for _, b := range []int{20, 40, 60, 90, 120} {
		cfg := oneWayConfig(Options{Seed: 1}, time.Second, b, 3)
		cfg.Warmup = 300 * time.Second
		cfg.Duration = 3300 * time.Second
		res := core.Run(cfg)
		t.Logf("B=%d C=%.0f: util=%.4f idle=%.4f", b, float64(b)+2*cfg.PipeSize(),
			res.UtilForward(), 1-res.UtilForward())
	}
}
