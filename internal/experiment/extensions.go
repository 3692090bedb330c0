package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
)

// DelayedACKStudy reproduces the §5 delayed-ACK discussion: the option
// introduces an element of pacing by holding ACKs, which cuts the
// clusters at the bottleneck into smaller partial clusters and reduces —
// but, with appreciable window sizes, does not eliminate — the effect of
// ACK-compression. Cluster size is measured as the mean same-connection
// run length in the bottleneck departure stream (data of one connection
// interleaving with ACKs of the other), and compression as the fraction
// of compressed ACK gaps at the sender.
func DelayedACKStudy(opts Options) *Outcome {
	build := func(maxWnd int, delayed bool) core.Config {
		cfg := twoWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer)
		for i := range cfg.Conns {
			cfg.Conns[i].DelayedAck = delayed
			cfg.Conns[i].MaxWnd = maxWnd
		}
		return cfg
	}
	results := runConfigs(opts, build(8, false), build(8, true),
		build(core.DefaultMaxWnd, true), build(core.DefaultMaxWnd, false))
	smallOff, smallDel, largeDel, largeOff := results[0], results[1], results[2], results[3]

	runAt := func(res *core.Result) float64 {
		return analysis.MeanRunLength(analysis.DeparturesFrom(res.TrunkDeps[0][0], res.MeasureFrom))
	}
	runSmallOff, runSmallDel := runAt(smallOff), runAt(smallDel)
	runLargeOff, runLargeDel := runAt(largeOff), runAt(largeDel)
	compSmallOff, compSmallDel := compression(smallOff, 0), compression(smallDel, 0)
	compLargeOff, compLargeDel := compression(largeOff, 0), compression(largeDel, 0)
	combined := largeDel.ReceiverStats[0].AcksCombined + largeDel.ReceiverStats[1].AcksCombined

	o := outcome(largeDel, 30*time.Second, largeDel.Q1(), largeDel.Q2())
	o.Metrics = []Metric{
		metric("delayed-ACK combines ACKs", "fewer ACKs on the wire",
			combined > 0, "%d ACK pairs combined", combined),
		metric("maxwnd=8: clusters cut up", "a few small partial clusters",
			runSmallDel < 0.7*runSmallOff && runSmallDel <= 5,
			"mean run %.1f (vs %.1f with option off)", runSmallDel, runSmallOff),
		metric("maxwnd=8: compression reduced", "effect minimized",
			compSmallDel.CompressedFraction() < compSmallOff.CompressedFraction(),
			"%.0f %% vs %.0f %% with option off",
			compSmallDel.CompressedFraction()*100, compSmallOff.CompressedFraction()*100),
		metric("large windows: clusters shrink but remain", "partial clusters of appreciable size",
			runLargeDel < 0.7*runLargeOff && runLargeDel > 2,
			"mean run %.1f (vs %.1f with option off)", runLargeDel, runLargeOff),
		metric("large windows: compression persists", "reduced to some degree, not eliminated",
			compLargeDel.CompressedFraction() < compLargeOff.CompressedFraction() &&
				compLargeDel.CompressedFraction() > 0.15,
			"%.0f %% vs %.0f %% with option off",
			compLargeDel.CompressedFraction()*100, compLargeOff.CompressedFraction()*100),
	}
	return o
}

// FourSwitchTopology reproduces the §5 remark that the phenomena survive
// the more complicated topology of [19]: four switches in a line with 50
// connections whose path lengths split roughly equally between 1, 2 and
// 3 hops. The analysis of such a mesh is infeasible, but the signature
// observables — ACK-compression, queue oscillations with idle time, and
// only-partial clustering — are all present.
func FourSwitchTopology(opts Options) *Outcome {
	cfg := core.Config{
		Switches:   4,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     30,
		Seed:       opts.seed(),
		Warmup:     opts.scale(200 * time.Second),
		Duration:   opts.scale(600 * time.Second),
	}
	// 50 connections with hop lengths 1, 2, 3 in rotation, random
	// direction and placement from the scenario seed.
	rng := rand.New(rand.NewSource(opts.seed() + 1000))
	for i := 0; i < 50; i++ {
		hops := 1 + i%3
		src := rng.Intn(4 - hops)
		dst := src + hops
		if rng.Intn(2) == 0 {
			src, dst = dst, src
		}
		cfg.Conns = append(cfg.Conns, core.ConnSpec{SrcHost: src, DstHost: dst, Start: -1})
	}
	res := runConfigs(opts, cfg)[0]

	// Aggregate over the middle trunk (index 1), the busiest.
	midQ := res.TrunkQueue[1][0]
	rises := analysis.RapidRises(midQ, res.MeasureFrom, res.MeasureTo, res.Cfg.DataTxTime(), 4)
	clus := dataClustering(res, 1, 0)
	minUtil, maxUtil := 1.0, 0.0
	for i := range res.TrunkUtil {
		for dir := range res.TrunkUtil[i] {
			u := res.TrunkUtil[i][dir]
			if u < minUtil {
				minUtil = u
			}
			if u > maxUtil {
				maxUtil = u
			}
		}
	}
	// Compression measured across all senders: max fraction seen.
	best := 0.0
	for k := range res.AckArrivals {
		if f := compression(res, k).CompressedFraction(); f > best {
			best = f
		}
	}

	o := outcome(res, 30*time.Second, res.TrunkQueue[1][0], res.TrunkQueue[1][1])
	o.Metrics = []Metric{
		metric("ACK compression present", "persists in complex topology",
			best > 0.2, "max compressed fraction %.0f %%", best*100),
		metric("rapid queue fluctuations", "present", rises > 50, "%d rapid rises", rises),
		metric("partial clustering", "no longer complete, not interleaved",
			clus > 0.05 && clus < 0.95, "%.3f on middle trunk", clus),
		metric("lines significantly underutilized", "idle time persists",
			minUtil < 0.95, "trunk utils %.1f%%..%.1f%%", minUtil*100, maxUtil*100),
	}
	o.Notes = append(o.Notes, fmt.Sprintf("ACK drops: %d (data drops %d)",
		ackDropCount(res), len(dropsAfter(res.Drops, res.MeasureFrom))-ackDropCount(res)))
	return o
}

// PacingAblation tests the paper's conjecture (§1, §3.1) that the
// two-way phenomena are properties of *nonpaced* window algorithms:
// clustering requires that sources transmit immediately on ACK receipt.
// Pacing each source at the bottleneck data transmission time (80 ms)
// should dissolve the clusters and with them ACK-compression's rapid
// queue fluctuations.
func PacingAblation(opts Options) *Outcome {
	build := func(pace time.Duration) core.Config {
		cfg := twoWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer)
		for i := range cfg.Conns {
			cfg.Conns[i].Pace = pace
		}
		return cfg
	}
	results := runConfigs(opts, build(0), build(80*time.Millisecond))
	unpaced, paced := results[0], results[1]

	compU := compression(unpaced, 0)
	compP := compression(paced, 0)
	risesU := analysis.RapidRises(unpaced.Q1(), unpaced.MeasureFrom, unpaced.MeasureTo,
		unpaced.Cfg.DataTxTime(), 4)
	risesP := analysis.RapidRises(paced.Q1(), paced.MeasureFrom, paced.MeasureTo,
		paced.Cfg.DataTxTime(), 4)

	o := outcome(paced, 30*time.Second, unpaced.Q1(), paced.Q1())
	o.Series[0].Name = "unpaced-Q1"
	o.Series[1].Name = "paced-Q1"
	o.Metrics = []Metric{
		metric("unpaced compression", "present (the baseline pathology)",
			compU.CompressedFraction() > 0.2, "%.0f %% gaps compressed",
			compU.CompressedFraction()*100),
		metric("paced compression", "largely eliminated",
			compP.CompressedFraction() < compU.CompressedFraction()/2,
			"%.0f %% vs %.0f %% unpaced",
			compP.CompressedFraction()*100, compU.CompressedFraction()*100),
		metric("rapid queue fluctuations", "reduced by pacing",
			risesP < risesU/2, "%d vs %d unpaced", risesP, risesU),
	}
	o.Notes = append(o.Notes, fmt.Sprintf("utilization: unpaced %.1f%%, paced %.1f%%",
		unpaced.UtilForward()*100, paced.UtilForward()*100))
	return o
}
