package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/topology"
)

// waveThreshold is the queue excess over the pre-pulse baseline that
// counts as "the wave has arrived" at a hop: three packets is well above
// the fixed-window cross traffic's jitter but far below the pulse's
// contribution.
const waveThreshold = 3.0

// CongestionWaveProbe watches a load transient propagate hop by hop
// down a chain of bottlenecks — the congestion-wave picture behind the
// paper's §4 queue dynamics, isolated with fixed windows so nothing
// adapts and the wavefront is clean. Four single-hop cross connections
// hold a steady standing queue on each trunk of a 5-switch chain; at a
// known instant a large fixed-window pulse connection from one end to
// the other dumps a window's worth of packets into the first hop. The
// pulse can reach hop i+1 no faster than hop i drains it, so each hop's
// queue rise lags the previous one's: a wave. The experiment measures
// the per-hop arrival time of the wavefront (first queue sample at
// baseline + 3) and the per-hop queue peak time, and requires both to
// be strictly ordered across all bottleneck hops.
func CongestionWaveProbe(opts Options) *Outcome {
	const hops = 4
	g := topology.Chain(hops + 1)
	cfg := core.Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     30,
		Seed:       opts.seed(),
		Warmup:     opts.scale(20 * time.Second),
		Duration:   opts.scale(120 * time.Second),
	}
	// One fixed-window cross connection per hop, started staggered so
	// their standing queues are established long before the pulse.
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
		FixedWnd: 25,
		Start:    pulseAt,
	})
	res := runCore(opts, cfg)

	// Per hop: baseline over the pre-pulse measurement window, then the
	// wavefront arrival and the queue peak after the pulse.
	waves := make([]hopWave, hops)
	for h := 0; h < hops; h++ {
		q := res.TrunkQueue[h][0]
		w := &waves[h]
		w.baseline = q.TimeAverage(res.MeasureFrom, pulseAt)
		w.arrival, w.arrived = analysis.FirstAbove(q, pulseAt, res.MeasureTo, w.baseline+waveThreshold)
		w.peakAt, w.peak = analysis.ArgMax(q, pulseAt, res.MeasureTo)
	}

	reached := 0
	for _, w := range waves {
		if w.arrived {
			reached++
		}
	}
	arrivalsOrdered := reached == hops
	peaksOrdered := true
	for h := 1; h < hops; h++ {
		if !waves[h].arrived || !waves[h-1].arrived || waves[h].arrival <= waves[h-1].arrival {
			arrivalsOrdered = false
		}
		if waves[h].peakAt <= waves[h-1].peakAt {
			peaksOrdered = false
		}
	}
	var span time.Duration
	if waves[0].arrived && waves[hops-1].arrived {
		span = waves[hops-1].arrival - waves[0].arrival
	}

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
	o.PlotTo = pulseAt + opts.scale(30*time.Second)
	if o.PlotTo > res.MeasureTo {
		o.PlotTo = res.MeasureTo
	}
	o.Metrics = []Metric{
		metric("wave reaches every bottleneck", "queue rise visible at all 4 hops",
			reached == hops, "%d of %d hops crossed baseline+%.0f", reached, hops, waveThreshold),
		metric("wavefront propagates in order", "arrival times strictly increasing with hop",
			arrivalsOrdered, "arrivals %s", waveTimes(waves, func(w hopWave) time.Duration { return w.arrival })),
		metric("queue peaks propagate in order", "peak times strictly increasing with hop",
			peaksOrdered, "peaks %s", waveTimes(waves, func(w hopWave) time.Duration { return w.peakAt })),
		metric("propagation is queue-limited", "end-to-end lag far above propagation delay",
			span > 4*cfg.TrunkDelay, "hop0→hop3 wavefront lag %v", span.Round(time.Millisecond)),
	}
	for h, w := range waves {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"hop %d: baseline %.1f, wave at %v, peak %.0f at %v",
			h, w.baseline, w.arrival.Round(time.Millisecond), w.peak, w.peakAt.Round(time.Millisecond)))
	}
	return o
}

// hopWave is one bottleneck hop's view of the pulse: its pre-pulse
// queue baseline and the post-pulse wavefront arrival and queue peak.
type hopWave struct {
	baseline float64
	arrival  time.Duration
	arrived  bool
	peakAt   time.Duration
	peak     float64
}

// waveTimes formats one per-hop time per wave entry.
func waveTimes(waves []hopWave, f func(hopWave) time.Duration) string {
	s := ""
	for i, w := range waves {
		if i > 0 {
			s += " → "
		}
		s += f(w).Round(time.Millisecond).String()
	}
	return s
}
