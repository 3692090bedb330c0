package experiment

import (
	"math"
	"time"

	"tahoedyn/internal/core"
)

// IncreaseRuleStudy validates the paper's §2.1 assertion that replacing
// the original BSD congestion-avoidance increase (cwnd += 1/cwnd, which
// can leave ⌊cwnd⌋ unchanged over a full epoch) with the modified
// cwnd += 1/⌊cwnd⌋ affects none of the qualitative conclusions: the
// Fig. 2 configuration must produce the same utilization, oscillation
// period, and drops-per-epoch under both rules.
func IncreaseRuleStudy(opts Options) *Outcome {
	build := func(original bool) core.Config {
		cfg := oneWayConfig(opts, time.Second, core.DefaultBuffer, 3)
		for i := range cfg.Conns {
			cfg.Conns[i].OriginalIncrease = original
		}
		cfg.Duration = opts.scale(900 * time.Second)
		return cfg
	}
	results := runConfigs(opts, build(false), build(true))
	modified, original := results[0], results[1]

	epochsMod := measuredEpochs(modified, 10*time.Second)
	epochsOrig := measuredEpochs(original, 10*time.Second)
	periodMod := meanEpochPeriod(epochsMod)
	periodOrig := meanEpochPeriod(epochsOrig)
	utilDiff := math.Abs(modified.UtilForward() - original.UtilForward())
	periodRatio := 0.0
	if periodMod > 0 {
		periodRatio = float64(periodOrig) / float64(periodMod)
	}

	o := outcome(modified, 140*time.Second, modified.Cwnd[0], original.Cwnd[0])
	o.Series[0].Name = "cwnd-modified"
	o.Series[1].Name = "cwnd-original"
	o.Metrics = []Metric{
		metric("utilization unchanged", "no qualitative effect",
			utilDiff < 0.02, "%.1f %% vs %.1f %% original",
			modified.UtilForward()*100, original.UtilForward()*100),
		metric("oscillation period unchanged", "≈ same cycle",
			inBand(periodRatio, 0.85, 1.2), "%v vs %v original",
			periodMod.Round(time.Second), periodOrig.Round(time.Second)),
		metric("drops per epoch unchanged", "acceleration analysis holds for both",
			math.Abs(meanDropsPerEpoch(epochsMod)-meanDropsPerEpoch(epochsOrig)) < 0.5,
			"%.1f vs %.1f original", meanDropsPerEpoch(epochsMod), meanDropsPerEpoch(epochsOrig)),
	}
	o.Notes = append(o.Notes,
		"the paper modified the rule only to make ⌊cwnd⌋ advance exactly once per epoch, "+
			"simplifying the acceleration bookkeeping — not to change behavior")
	return o
}
