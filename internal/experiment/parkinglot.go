package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
)

// ParkingLotFairness runs the classic multi-bottleneck fairness probe
// on the new topology layer: a 3-hop parking lot where one long
// connection crosses every trunk against one single-hop cross connection
// per trunk. The paper stops at the dumbbell and the four-switch line of
// [19]; this experiment extends its §5 discussion to the canonical
// topology where per-bottleneck loss compounds. Tahoe's loss-driven
// window control charges the long connection a drop probability at every
// hop and a triple round-trip time, so it settles not merely below an
// equal share but one to two orders of magnitude below the cross
// connections — yet it keeps making steady progress, because each loss
// shrinks rather than closes its window.
func ParkingLotFairness(opts Options) *Outcome {
	const hops = 3
	g := topology.ParkingLot(hops)
	cfg := core.Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     30,
		Seed:       opts.seed(),
		Warmup:     opts.scale(100 * time.Second),
		Duration:   opts.scale(400 * time.Second),
	}
	// Connection 0 is the long flow; connections 1..hops each cross one
	// trunk.
	cfg.Conns = []core.ConnSpec{{SrcHost: 0, DstHost: hops, Start: -1}}
	for h := 0; h < hops; h++ {
		cfg.Conns = append(cfg.Conns, core.ConnSpec{SrcHost: h, DstHost: h + 1, Start: -1})
	}
	res := runConfigs(opts, cfg)[0]

	long := res.Goodput[0]
	crossMean := 0.0
	crossMin := res.Goodput[1]
	for _, gp := range res.Goodput[1:] {
		crossMean += float64(gp)
		if gp < crossMin {
			crossMin = gp
		}
	}
	crossMean /= hops
	share := 0.0
	if crossMean > 0 {
		share = float64(long) / crossMean
	}
	jain := analysis.JainIndex(res.Goodput)
	minUtil := 1.0
	for i := range res.TrunkUtil {
		if u := res.TrunkUtil[i][0]; u < minUtil {
			minUtil = u
		}
	}
	// Queueing must happen at every hop, not only the first: each trunk is
	// a real bottleneck.
	minPeak := res.TrunkQueue[0][0].Max(res.MeasureFrom, res.MeasureTo)
	for i := 1; i < len(res.TrunkQueue); i++ {
		if p := res.TrunkQueue[i][0].Max(res.MeasureFrom, res.MeasureTo); p < minPeak {
			minPeak = p
		}
	}

	var series []*trace.Series
	for i := range res.TrunkQueue {
		series = append(series, res.TrunkQueue[i][0])
	}
	o := outcome(res, 60*time.Second, append(series, res.Cwnd[0])...)
	o.Metrics = []Metric{
		metric("every hop saturated", "all three trunks near full utilization",
			minUtil > 0.9, "min forward utilization %.1f %%", minUtil*100),
		metric("every hop queues", "standing queues at each bottleneck",
			minPeak >= 5, "min per-hop queue peak %.0f packets", minPeak),
		metric("long connection severely disadvantaged", "multi-hop loss compounds, well below equal share",
			long > 0 && float64(long) < 0.2*crossMean,
			"long/cross goodput ratio %.3f", share),
		metric("long connection not starved", "keeps delivering despite compound loss",
			share > 0.01, "long goodput %d packets (ratio %.3f)", long, share),
		metric("fairness index", "unfair but bounded (Jain in [0.5, 0.9])",
			inBand(jain, 0.5, 0.9), "Jain %.3f across 4 connections", jain),
	}
	o.Notes = append(o.Notes, fmt.Sprintf(
		"goodput long=%d cross=%v (min %d); drops in window: %d",
		long, res.Goodput[1:], crossMin, len(dropsAfter(res.Drops, res.MeasureFrom))))
	return o
}
