package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/topology"
)

// MeshWaveStudy carries the wave-speed velocity fit off the hand-built
// chain and onto a generated mesh, closing the ROADMAP note that the
// fit worked on chains only. The "chain" is the diameter path of a
// scale-free tree — BarabasiAlbert with m = 1, so every link is a
// bridge and routes down the path are unique — found by double BFS.
// The workload is the same isolation trick as WaveSpeedStudy, rebuilt
// on the discovered path: one fixed-window cross connection per path
// hop holds a standing queue on that trunk, then a large fixed-window
// pulse enters at one end of the path. The fit is identical:
// wavefront arrival time against hop index, a straight line meaning
// the congestion wave crosses a preferential-attachment tree at the
// same well-defined queue-drain velocity it shows on a chain.
func MeshWaveStudy(opts Options) *Outcome {
	g := topology.BarabasiAlbert(64, 1, 7)
	path := diameterPath(&g)
	hops := len(path) - 1
	hopLinks := pathHops(&g, path)

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
			SrcHost:  path[h],
			DstHost:  path[h+1],
			FixedWnd: 4,
			Start:    opts.scale(time.Duration(h) * 250 * time.Millisecond),
		})
	}
	pulseAt := opts.scale(40 * time.Second)
	cfg.Conns = append(cfg.Conns, core.ConnSpec{
		SrcHost:  path[0],
		DstHost:  path[hops],
		FixedWnd: 30,
		Start:    pulseAt,
	})
	res := runCore(opts, cfg)

	waves := make([]hopWave, hops)
	reached := 0
	var xs, ys []float64
	for h := 0; h < hops; h++ {
		q := res.TrunkQueue[hopLinks[h].Link][hopLinks[h].Dir]
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

	o := &Outcome{Result: res}
	for h := 0; h < hops; h++ {
		o.Series = append(o.Series, res.TrunkQueue[hopLinks[h].Link][hopLinks[h].Dir])
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
		metric("diameter path is chain-like", "double BFS finds >= 6 hops to fit across",
			hops >= 6, "%d-hop diameter path on 64 switches", hops),
		metric("wave reaches every path hop", "queue rise visible at all hops",
			reached == hops, "%d of %d hops crossed baseline+%.0f", reached, hops, waveThreshold),
		metric("arrival time is linear in hop depth", "r² of arrival-vs-hop fit near 1",
			r2 >= 0.9, "r² = %.3f over %d hops", r2, reached),
		metric("wave velocity is positive and finite", "fitted slope > 0",
			slope > 0, "v = %.2f hops/s (%.0f ms/hop)", velocity, slope*1000),
		metric("propagation is queue-limited", "fitted per-hop delay far above trunk latency",
			perHop > 4*cfg.TrunkDelay, "%v per hop vs %v propagation", perHop.Round(time.Millisecond), cfg.TrunkDelay),
	}
	o.Notes = append(o.Notes, fmt.Sprintf("the tree's diameter is %d hops", hops))
	o.Notes = append(o.Notes, fmt.Sprintf("diameter path: %v", path))
	o.Notes = append(o.Notes, fmt.Sprintf(
		"fit: arrival = %.0f ms·hop + %.0f ms, r² = %.3f", slope*1000, intercept*1000, r2))
	for h, w := range waves {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"hop %d (link %d dir %d): baseline %.1f, wave at %v",
			h, hopLinks[h].Link, hopLinks[h].Dir, w.baseline, w.arrival.Round(time.Millisecond)))
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
