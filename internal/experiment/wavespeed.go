package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/topology"
)

// WaveSpeedStudy quantifies the congestion wave that CongestionWaveProbe
// only orders: down a deeper chain of bottlenecks, how fast does the
// wavefront travel, and is its pace constant in hop depth? The setup is
// the same isolation trick — fixed-window cross traffic holds a standing
// queue on every trunk of an 8-bottleneck chain, then a large
// fixed-window pulse enters at one end — but the measurement is a
// least-squares fit of wavefront arrival time against hop index
// (analysis.LinearFit). A straight line (r² near 1) means the wave
// moves at a well-defined velocity; its slope is the per-hop delay, set
// by queue drain time rather than propagation delay, which the study
// checks by comparing the fitted slope against the trunk latency.
func WaveSpeedStudy(opts Options) *Outcome {
	const hops = 8
	g := topology.Chain(hops + 1)
	cfg := core.Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     40,
		Seed:       opts.seed(),
		Warmup:     opts.scale(20 * time.Second),
		Duration:   opts.scale(120 * time.Second),
	}
	for h := 0; h < hops; h++ {
		cfg.Conns = append(cfg.Conns, core.ConnSpec{
			SrcHost:  h,
			DstHost:  h + 1,
			FixedWnd: 4,
			Start:    opts.scale(time.Duration(h) * 250 * time.Millisecond),
		})
	}
	pulseAt := opts.scale(40 * time.Second)
	cfg.Conns = append(cfg.Conns, core.ConnSpec{
		SrcHost:  0,
		DstHost:  hops,
		FixedWnd: 30,
		Start:    pulseAt,
	})
	res := runCore(opts, cfg)

	waves := make([]hopWave, hops)
	reached := 0
	var xs, ys []float64
	for h := 0; h < hops; h++ {
		q := res.TrunkQueue[h][0]
		w := &waves[h]
		w.baseline = q.TimeAverage(res.MeasureFrom, pulseAt)
		w.arrival, w.arrived = analysis.FirstAbove(q, pulseAt, res.MeasureTo, w.baseline+waveThreshold)
		if w.arrived {
			reached++
			xs = append(xs, float64(h))
			ys = append(ys, (w.arrival - pulseAt).Seconds())
		}
	}
	slope, intercept, r2 := analysis.LinearFit(xs, ys)
	velocity := 0.0
	if slope > 0 {
		velocity = 1 / slope
	}
	perHop := time.Duration(slope * float64(time.Second))

	o := &Outcome{
		Result: res,
	}
	for h := 0; h < hops; h++ {
		o.Series = append(o.Series, res.TrunkQueue[h][0])
	}
	o.PlotFrom = pulseAt - opts.scale(5*time.Second)
	if o.PlotFrom < res.MeasureFrom {
		o.PlotFrom = res.MeasureFrom
	}
	o.PlotTo = pulseAt + opts.scale(40*time.Second)
	if o.PlotTo > res.MeasureTo {
		o.PlotTo = res.MeasureTo
	}
	o.Metrics = []Metric{
		metric("wave reaches every bottleneck", "queue rise visible at all 8 hops",
			reached == hops, "%d of %d hops crossed baseline+%.0f", reached, hops, waveThreshold),
		metric("arrival time is linear in hop depth", "r² of arrival-vs-hop fit near 1",
			r2 >= 0.9, "r² = %.3f over %d hops", r2, reached),
		metric("wave velocity is positive and finite", "fitted slope > 0",
			slope > 0, "v = %.2f hops/s (%.0f ms/hop)", velocity, slope*1000),
		metric("propagation is queue-limited", "fitted per-hop delay far above trunk latency",
			perHop > 4*cfg.TrunkDelay, "%v per hop vs %v propagation", perHop.Round(time.Millisecond), cfg.TrunkDelay),
	}
	o.Notes = append(o.Notes, fmt.Sprintf(
		"fit: arrival = %.0f ms·hop + %.0f ms, r² = %.3f", slope*1000, intercept*1000, r2))
	for h, w := range waves {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"hop %d: baseline %.1f, wave at %v", h, w.baseline, w.arrival.Round(time.Millisecond)))
	}
	return o
}
