package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/topology"
)

// The three congestion-wave studies share one probe, pulseProbe, and
// differ in the path it runs along and in what they claim about the
// wave: CongestionWaveProbe orders it, WaveSpeedStudy fits its velocity
// down a chain, MeshWaveStudy fits it across a scale-free tree.

// waveThreshold is the queue excess over the pre-pulse baseline that
// counts as "the wave has arrived" at a hop: three packets is well above
// the fixed-window cross traffic's jitter but far below the pulse's
// contribution.
const waveThreshold = 3.0

// waveTrunkDelay is the propagation delay of every trunk the probe
// runs on; a queue-limited wave lags far more than this per hop.
const waveTrunkDelay = 10 * time.Millisecond

// hopWave is one bottleneck hop's view of the pulse: its pre-pulse
// queue baseline and the post-pulse wavefront arrival and queue peak.
type hopWave struct {
	baseline float64
	arrival  time.Duration
	arrived  bool
	peakAt   time.Duration
	peak     float64
}

// pulseWave is what pulseProbe saw along its path.
type pulseWave struct {
	pulseAt time.Duration
	// links is the trunk and transmit direction of each path hop, and
	// hops that hop's view of the pulse.
	links []topology.Hop
	hops  []hopWave
	// reached counts the hops whose queue crossed baseline+waveThreshold.
	reached int
}

// pulseProbe watches a load transient propagate hop by hop along the
// switch path of g — the congestion-wave picture behind the paper's §4
// queue dynamics, isolated with fixed windows so nothing adapts and the
// wavefront is clean. One fixed-window cross connection per path hop,
// started staggered so the standing queues are established long before
// the pulse, holds a standing queue on that trunk; at a known instant a
// large fixed-window pulse connection (window pulseWnd) from one end of
// the path to the other dumps a window's worth of packets into the first
// hop. The pulse can reach hop i+1 no faster than hop i drains it, so
// each hop's queue rise lags the previous one's: a wave. Per hop the
// probe measures the baseline over the pre-pulse measurement window,
// then the wavefront arrival (first queue sample at baseline +
// waveThreshold) and the queue peak after the pulse. The Outcome plots
// every hop's queue from 5 s before the pulse to show after it.
func pulseProbe(opts Options, g *topology.Graph, path []int, buffer, pulseWnd int, show time.Duration) (*Outcome, pulseWave) {
	hops := len(path) - 1
	w := pulseWave{pulseAt: opts.scale(40 * time.Second), links: pathHops(g, path), hops: make([]hopWave, hops)}
	cfg := core.Config{
		Topology:   g,
		TrunkDelay: waveTrunkDelay,
		Buffer:     buffer,
		Seed:       opts.seed(),
		Warmup:     opts.scale(20 * time.Second),
		Duration:   opts.scale(120 * time.Second),
	}
	for h := 0; h < hops; h++ {
		cfg.Conns = append(cfg.Conns, core.ConnSpec{
			SrcHost:  path[h],
			DstHost:  path[h+1],
			FixedWnd: 4,
			Start:    opts.scale(time.Duration(h) * 250 * time.Millisecond),
		})
	}
	cfg.Conns = append(cfg.Conns, core.ConnSpec{
		SrcHost:  path[0],
		DstHost:  path[hops],
		FixedWnd: pulseWnd,
		Start:    w.pulseAt,
	})
	res := runConfigs(opts, cfg)[0]

	o := &Outcome{
		Result:   res,
		PlotFrom: max(w.pulseAt-opts.scale(5*time.Second), res.MeasureFrom),
		PlotTo:   min(w.pulseAt+opts.scale(show), res.MeasureTo),
	}
	for h, l := range w.links {
		q := res.TrunkQueue[l.Link][l.Dir]
		o.Series = append(o.Series, q)
		hw := &w.hops[h]
		hw.baseline = q.TimeAverage(res.MeasureFrom, w.pulseAt)
		hw.arrival, hw.arrived = analysis.FirstAbove(q, w.pulseAt, res.MeasureTo, hw.baseline+waveThreshold)
		hw.peakAt, hw.peak = analysis.ArgMax(q, w.pulseAt, res.MeasureTo)
		if hw.arrived {
			w.reached++
		}
	}
	return o, w
}

// chainProbe runs pulseProbe down a chain of hops bottlenecks, switch 0
// to switch hops.
func chainProbe(opts Options, hops, buffer, pulseWnd int, show time.Duration) (*Outcome, pulseWave) {
	g := topology.Chain(hops + 1)
	path := make([]int, hops+1)
	for i := range path {
		path[i] = i
	}
	return pulseProbe(opts, &g, path, buffer, pulseWnd, show)
}

// reachedCheck checks that the wave crossed the threshold at every hop.
func (w pulseWave) reachedCheck(name, paper string) Metric {
	return metric(name, paper, w.reached == len(w.hops),
		"%d of %d hops crossed baseline+%.0f", w.reached, len(w.hops), waveThreshold)
}

// velocityFit is the least-squares fit of wavefront arrival time against
// hop index over the hops the wave reached (analysis.LinearFit). A
// straight line (r² near 1) means the wave moves at a well-defined
// velocity; its slope is the per-hop delay, set by queue drain time
// rather than propagation delay, which the last check compares against
// the trunk latency. It returns the fit's checks and a note.
func (w pulseWave) velocityFit() ([]Metric, string) {
	var xs, ys []float64
	for h, hw := range w.hops {
		if hw.arrived {
			xs = append(xs, float64(h))
			ys = append(ys, (hw.arrival - w.pulseAt).Seconds())
		}
	}
	slope, intercept, r2 := analysis.LinearFit(xs, ys)
	velocity := 0.0
	if slope > 0 {
		velocity = 1 / slope
	}
	perHop := time.Duration(slope * float64(time.Second))
	checks := []Metric{
		metric("arrival time is linear in hop depth", "r² of arrival-vs-hop fit near 1",
			r2 >= 0.9, "r² = %.3f over %d hops", r2, w.reached),
		metric("wave velocity is positive and finite", "fitted slope > 0",
			slope > 0, "v = %.2f hops/s (%.0f ms/hop)", velocity, slope*1000),
		metric("propagation is queue-limited", "fitted per-hop delay far above trunk latency",
			perHop > 4*waveTrunkDelay, "%v per hop vs %v propagation", perHop.Round(time.Millisecond), waveTrunkDelay),
	}
	return checks, fmt.Sprintf("fit: arrival = %.0f ms·hop + %.0f ms, r² = %.3f", slope*1000, intercept*1000, r2)
}

// CongestionWaveProbe runs the pulse probe down a 5-switch chain (four
// bottlenecks, pulse window 25) and requires both the per-hop wavefront
// arrival times and the per-hop queue peak times to be strictly ordered
// across all bottleneck hops.
func CongestionWaveProbe(opts Options) *Outcome {
	const hops = 4
	o, w := chainProbe(opts, hops, 30, 25, 30*time.Second)
	waves := w.hops
	arrivalsOrdered := w.reached == hops
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

	o.Metrics = []Metric{
		w.reachedCheck("wave reaches every bottleneck", "queue rise visible at all 4 hops"),
		metric("wavefront propagates in order", "arrival times strictly increasing with hop",
			arrivalsOrdered, "arrivals %s", waveTimes(waves, func(w hopWave) time.Duration { return w.arrival })),
		metric("queue peaks propagate in order", "peak times strictly increasing with hop",
			peaksOrdered, "peaks %s", waveTimes(waves, func(w hopWave) time.Duration { return w.peakAt })),
		metric("propagation is queue-limited", "end-to-end lag far above propagation delay",
			span > 4*waveTrunkDelay, "hop0→hop3 wavefront lag %v", span.Round(time.Millisecond)),
	}
	for h, w := range waves {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"hop %d: baseline %.1f, wave at %v, peak %.0f at %v",
			h, w.baseline, w.arrival.Round(time.Millisecond), w.peak, w.peakAt.Round(time.Millisecond)))
	}
	return o
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

// WaveSpeedStudy quantifies the congestion wave that CongestionWaveProbe
// only orders: down a deeper chain of bottlenecks (eight, pulse window
// 30), how fast does the wavefront travel, and is its pace constant in
// hop depth? The measurement is the probe's velocity fit.
func WaveSpeedStudy(opts Options) *Outcome {
	o, w := chainProbe(opts, 8, 40, 30, 40*time.Second)
	fit, note := w.velocityFit()
	o.Metrics = append([]Metric{
		w.reachedCheck("wave reaches every bottleneck", "queue rise visible at all 8 hops"),
	}, fit...)
	o.Notes = append(o.Notes, note)
	for h, hw := range w.hops {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"hop %d: baseline %.1f, wave at %v", h, hw.baseline, hw.arrival.Round(time.Millisecond)))
	}
	return o
}

// MeshWaveStudy carries the wave-speed velocity fit off the hand-built
// chain and onto a generated mesh. The "chain" is the diameter path of a
// scale-free tree — BarabasiAlbert with m = 1, so every link is a
// bridge and routes down the path are unique — found by double BFS, and
// the probe runs along it with WaveSpeedStudy's buffer and pulse. A
// straight-line fit means the congestion wave crosses a
// preferential-attachment tree at the same well-defined queue-drain
// velocity it shows on a chain.
func MeshWaveStudy(opts Options) *Outcome {
	g := topology.BarabasiAlbert(64, 1, 7)
	path := diameterPath(&g)
	hops := len(path) - 1
	o, w := pulseProbe(opts, &g, path, 40, 30, 40*time.Second)
	fit, note := w.velocityFit()
	o.Metrics = append([]Metric{
		metric("diameter path is chain-like", "double BFS finds >= 6 hops to fit across",
			hops >= 6, "%d-hop diameter path on 64 switches", hops),
		w.reachedCheck("wave reaches every path hop", "queue rise visible at all hops"),
	}, fit...)
	o.Notes = append(o.Notes, fmt.Sprintf("the tree's diameter is %d hops", hops))
	o.Notes = append(o.Notes, fmt.Sprintf("diameter path: %v", path))
	o.Notes = append(o.Notes, note)
	for h, hw := range w.hops {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"hop %d (link %d dir %d): baseline %.1f, wave at %v",
			h, w.links[h].Link, w.links[h].Dir, hw.baseline, hw.arrival.Round(time.Millisecond)))
	}
	return o
}

// diameterPath returns the switch sequence of a longest shortest path
// in g under unit link weights, by double BFS: the farthest switch
// from an arbitrary root, then the farthest switch from that one with
// parents recorded. Exact on trees (the m = 1 scale-free graphs this
// study runs on); on general graphs it is the usual 2-approximation,
// still a valid shortest path to fit along. Deterministic: neighbors
// are scanned in link order, so ties break the same way every run.
func diameterPath(g *topology.Graph) []int {
	adj := make([][]int, g.Switches)
	for _, l := range g.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	bfs := func(root int) (far int, parent []int) {
		parent = make([]int, g.Switches)
		for i := range parent {
			parent[i] = -1
		}
		parent[root] = root
		queue := []int{root}
		far = root
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			far = u
			for _, v := range adj[u] {
				if parent[v] < 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		return far, parent
	}
	u, _ := bfs(0)
	v, parent := bfs(u)
	var rev []int
	for s := v; s != u; s = parent[s] {
		rev = append(rev, s)
	}
	rev = append(rev, u)
	path := make([]int, len(rev))
	for i, s := range rev {
		path[len(rev)-1-i] = s
	}
	return path
}

// pathHops resolves each consecutive switch pair of path to the link
// that joins it and the transmit direction along the path (Dir 0 is
// A→B). Panics on a pair with no joining link — the path came from the
// graph's own adjacency, so that would be a bug, not an input error.
func pathHops(g *topology.Graph, path []int) []topology.Hop {
	hops := make([]topology.Hop, len(path)-1)
	for h := 0; h+1 < len(path); h++ {
		a, b := path[h], path[h+1]
		found := false
		for li, l := range g.Links {
			if l.A == a && l.B == b {
				hops[h] = topology.Hop{Link: li, Dir: 0}
				found = true
				break
			}
			if l.A == b && l.B == a {
				hops[h] = topology.Hop{Link: li, Dir: 1}
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("experiment: no link joins path switches %d and %d", a, b))
		}
	}
	return hops
}
