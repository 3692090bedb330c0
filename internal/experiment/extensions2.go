package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

// RenoTwoWay tests the paper's conjecture (§1) that the two-way
// phenomena apply to a wider class of nonpaced window algorithms: the
// same dumbbell scenarios run under 4.3-Reno fast recovery (the
// successor algorithm of reference [7]). Both synchronization modes and
// ACK-compression must survive the algorithm change.
func RenoTwoWay(opts Options) *Outcome {
	build := func(tau time.Duration) core.Config {
		cfg := twoWayConfig(opts, tau, core.DefaultBuffer)
		for i := range cfg.Conns {
			cfg.Conns[i].Reno = true
		}
		return cfg
	}
	results := runConfigs(opts, build(10*time.Millisecond), build(time.Second))
	small, large := results[0], results[1]

	qSmall, rSmall := queuePhase(small)
	qLarge, rLarge := queuePhase(large)
	comp := compression(small, 0)
	var fastRtx, timeouts uint64
	for _, st := range small.SenderStats {
		fastRtx += st.FastRetransmits
		timeouts += st.Timeouts
	}

	o := outcome(small, 30*time.Second, small.Q1(), small.Q2())
	o.Metrics = []Metric{
		metric("small pipe: queue synchronization", "out-of-phase persists",
			qSmall == analysis.PhaseOut, "%v (r=%.2f)", qSmall, rSmall),
		metric("large pipe: queue synchronization", "in-phase persists",
			qLarge == analysis.PhaseIn, "%v (r=%.2f)", qLarge, rLarge),
		metric("ACK compression", "persists under Reno",
			comp.CompressedFraction() > 0.2, "%.0f %% gaps compressed",
			comp.CompressedFraction()*100),
		metric("recovery path", "fast retransmit dominates timeouts",
			fastRtx > 10*timeouts, "%d fast retransmits vs %d timeouts", fastRtx, timeouts),
		metric("small pipe utilization", "still well below full",
			inBand(small.UtilForward(), 0.55, 0.9), "%.1f %%", small.UtilForward()*100),
	}
	o.Notes = append(o.Notes, fmt.Sprintf(
		"Reno vs Tahoe utilization at τ=10ms: %.1f%% (Tahoe ≈70%%); at τ=1s: %.1f%% (Tahoe ≈64%%)",
		small.UtilForward()*100, large.UtilForward()*100))
	return o
}

// RandomDropStudy contrasts the paper's drop-tail switches with the
// Random Drop gateway discipline of the studies cited in §1 ([4], [5],
// [10], [18]). Random eviction breaks the one-way loss-synchronization
// (a uniformly chosen victim rarely hits every connection in the same
// epoch) and removes drop-tail's structural ACK immunity.
func RandomDropStudy(opts Options) *Outcome {
	randomDrop := &link.QueueSpec{Policy: link.PolicyRandomDrop}
	oneWay := oneWayConfig(opts, time.Second, core.DefaultBuffer, 3)
	oneWayRandom := oneWay
	oneWayRandom.Queue = randomDrop
	// Two-way: do ACKs get dropped now?
	twoWayRandom := twoWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer)
	twoWayRandom.Queue = randomDrop
	results := runConfigs(opts, oneWay, oneWayRandom, twoWayRandom)
	tail, random, twoWay := results[0], results[1], results[2]

	allLose := func(res *core.Result) (int, int) {
		epochs := measuredEpochs(res, 10*time.Second)
		n := 0
		for _, e := range epochs {
			if len(e.LossByConn()) == 3 {
				n++
			}
		}
		return n, len(epochs)
	}
	tailAll, tailEpochs := allLose(tail)
	randAll, randEpochs := allLose(random)

	ackDrops := ackDropCount(twoWay)

	o := outcome(random, 140*time.Second, random.Q1())
	tailFrac := safeFrac(tailAll, tailEpochs)
	randFrac := safeFrac(randAll, randEpochs)
	o.Metrics = []Metric{
		metric("drop-tail loss-synchronization", "all 3 connections lose every epoch",
			tailFrac >= 0.9, "%.0f %% of %d epochs", tailFrac*100, tailEpochs),
		metric("random-drop loss-synchronization", "broken by uniform eviction",
			randFrac <= 0.5, "%.0f %% of %d epochs", randFrac*100, randEpochs),
		metric("one-way utilization", "comparable or better",
			random.UtilForward() >= tail.UtilForward()-0.03,
			"%.1f %% vs %.1f %% drop-tail", random.UtilForward()*100, tail.UtilForward()*100),
		metric("one-way fairness (Jain)", "remains high",
			analysis.JainIndex(random.Goodput) > 0.9, "%.4f",
			analysis.JainIndex(random.Goodput)),
		metric("two-way ACK drops", "ACK immunity is a drop-tail artifact",
			ackDrops > 0, "%d ACKs evicted", ackDrops),
	}
	return o
}

func safeFrac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// UnequalRTTStudy tests the §5 remark that identical round-trip times
// were crucial to complete clustering: once connections' RTTs differ by
// more than a bottleneck packet transmission time, clustering is only
// partial — and, as a side effect, the longer-RTT connections lose
// goodput share.
func UnequalRTTStudy(opts Options) *Outcome {
	build := func(extra time.Duration) core.Config {
		cfg := oneWayConfig(opts, time.Second, core.DefaultBuffer, 3)
		cfg.Conns[1].ExtraDelay = extra
		cfg.Conns[2].ExtraDelay = 2 * extra
		return cfg
	}
	results := runConfigs(opts, build(0), build(100*time.Millisecond)) // ≫ the 80 ms data tx time
	equal, unequal := results[0], results[1]

	clusEqual := dataClustering(equal, 0, 0)
	clusUnequal := dataClustering(unequal, 0, 0)

	o := outcome(unequal, 140*time.Second, unequal.Q1())
	o.Metrics = []Metric{
		metric("equal RTTs: clustering", "complete",
			clusEqual >= 0.8, "%.3f", clusEqual),
		metric("unequal RTTs: clustering", "no longer perfect, partial remains",
			clusUnequal < clusEqual-0.1 && clusUnequal > 0.2,
			"%.3f (vs %.3f equal)", clusUnequal, clusEqual),
		metric("utilization", "roughly maintained",
			unequal.UtilForward() > equal.UtilForward()-0.08,
			"%.1f %% vs %.1f %% equal", unequal.UtilForward()*100, equal.UtilForward()*100),
		metric("fairness (Jain)", "declines with RTT spread",
			analysis.JainIndex(unequal.Goodput) < analysis.JainIndex(equal.Goodput),
			"%.4f vs %.4f equal",
			analysis.JainIndex(unequal.Goodput), analysis.JainIndex(equal.Goodput)),
	}
	o.Notes = append(o.Notes, fmt.Sprintf("goodput shares with unequal RTTs: %v", unequal.Goodput))
	return o
}
