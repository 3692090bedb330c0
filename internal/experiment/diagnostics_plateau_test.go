package experiment

import (
	"testing"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
)

func TestProbeFig9AllPlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	cfg := fixedWindowConfig(Options{Seed: 1}, time.Second, 30, 25)
	res := core.Run(cfg)
	for _, q := range []int{0, 1} {
		s := res.TrunkQueue[0][q]
		ps := analysis.Plateaus(s, res.MeasureFrom, res.MeasureFrom+60*time.Second, 500*time.Millisecond, 1.0)
		var lv []float64
		var du []time.Duration
		for _, p := range ps {
			lv = append(lv, p.Level)
			du = append(du, p.Duration().Round(100*time.Millisecond))
		}
		t.Logf("Q%d levels=%v", q+1, lv)
		t.Logf("Q%d durs  =%v", q+1, du)
	}
}
