package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refRoutes is the pre-CSR route computation kept verbatim as a test
// reference: an O(S²) lowest-index-selection Dijkstra per distinct host
// switch and a full-link-scan bestHop, writing a dense next-hop array.
// The production compiler — heap Dijkstra, CSR scans, interval runs,
// any worker count — must answer NextHop byte-identically to this, and
// so must ApplyLinkChange's repairs: links it has taken down carry no
// routes here either.
func refRoutes(c *Compiled) ([]Hop, error) {
	nh := len(c.Hosts)
	next := make([]Hop, c.Switches*nh)
	distTo := make(map[int][]time.Duration)
	for h, hs := range c.Hosts {
		dist, ok := distTo[hs.Switch]
		if !ok {
			dist = refDijkstra(c, hs.Switch)
			distTo[hs.Switch] = dist
		}
		for s := 0; s < c.Switches; s++ {
			if s == hs.Switch {
				next[s*nh+h] = local
				continue
			}
			hop, found := refBestHop(c, s, dist)
			if !found {
				return nil, fmt.Errorf("switch %d cannot reach host %d", s, h)
			}
			next[s*nh+h] = hop
		}
	}
	return next, nil
}

func refDijkstra(c *Compiled, dst int) []time.Duration {
	dist := make([]time.Duration, c.Switches)
	for i := range dist {
		dist[i] = maxDist
	}
	dist[dst] = 0
	done := make([]bool, c.Switches)
	for {
		u, best := -1, maxDist
		for s := 0; s < c.Switches; s++ {
			if !done[s] && dist[s] < best {
				u, best = s, dist[s]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for li, l := range c.Links {
			var v int
			switch u {
			case l.A:
				v = l.B
			case l.B:
				v = l.A
			default:
				continue
			}
			if c.Weight(li) == downWt {
				continue
			}
			if d := best + c.Weight(li); d < dist[v] {
				dist[v] = d
			}
		}
	}
}

func refBestHop(c *Compiled, s int, dist []time.Duration) (Hop, bool) {
	best, bestCost := Hop{}, maxDist
	for li, l := range c.Links {
		var neighbor, dir int
		switch s {
		case l.A:
			neighbor, dir = l.B, 0
		case l.B:
			neighbor, dir = l.A, 1
		default:
			continue
		}
		if dist[neighbor] == maxDist || c.Weight(li) == downWt {
			continue
		}
		if cost := c.Weight(li) + dist[neighbor]; cost < bestCost {
			best, bestCost = Hop{Link: li, Dir: dir}, cost
		}
	}
	return best, bestCost != maxDist
}

// equivalenceGraphs is the pinned corpus: every shipped generator,
// multi-host shapes, a detour, and seeded random graphs.
func equivalenceGraphs() map[string]Graph {
	uneven := Chain(6)
	uneven.Links[2].Delay = 300 * time.Millisecond // push routes off the obvious line metric
	uneven.Links[4].Bandwidth = 1_000_000
	multi := Chain(3)
	multi.Hosts = []HostSpec{{0}, {0}, {1}, {2}, {2}, {2}}
	// The triangle a route override once forced onto its slow chord
	// (the key keeps its old name): traffic between 0 and 2 now goes
	// round through 1, past a direct link ten times slower.
	override := Graph{
		Switches: 3,
		Links:    []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2, Delay: 500 * time.Millisecond}},
	}
	mesh := Graph{Switches: 5}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			mesh.Links = append(mesh.Links, LinkSpec{A: a, B: b})
		}
	}
	// Weights all over the metric's range, 1 ns to 10⁴ s, one draw per
	// link: every bucket width of the queue, no two paths alike.
	wide := BarabasiAlbert(120, 3, 17)
	rng := rand.New(rand.NewSource(17))
	for i := range wide.Links {
		wide.Links[i].Bandwidth = weightOnlyBandwidth
		wide.Links[i].Delay = time.Duration(1 + rng.Int63n(int64(10_000*time.Second))>>rng.Intn(44))
	}
	// Weights from {1, 2, 3} ms on a graph with many cycles: equal-cost
	// paths everywhere, so the lowest-link tie-break decides most cells.
	ties := Waxman(90, 23)
	for i := range ties.Links {
		ties.Links[i].Bandwidth = weightOnlyBandwidth
		ties.Links[i].Delay = time.Duration(1+rng.Intn(3)) * time.Millisecond
	}
	// A grid of equal links with one doubled: ties along every rectangle.
	grid := Graph{Switches: 36}
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			if c < 5 {
				grid.Links = append(grid.Links, LinkSpec{A: 6*r + c, B: 6*r + c + 1})
			}
			if r < 5 {
				grid.Links = append(grid.Links, LinkSpec{A: 6*r + c, B: 6*r + c + 6})
			}
		}
	}
	grid.Links = append(grid.Links, grid.Links[7])
	return map[string]Graph{
		"dumbbell":     Dumbbell(),
		"chain-16":     Chain(16),
		"parking-lot":  ParkingLot(4),
		"uneven":       uneven,
		"multi-host":   multi,
		"override":     override,
		"mesh-5":       mesh,
		"ba-64":        BarabasiAlbert(64, 2, 7),
		"ba-200":       BarabasiAlbert(200, 3, 42),
		"waxman-64":    Waxman(64, 7),
		"waxman-300":   Waxman(300, 99),
		"wide-weights": wide,
		"tied-weights": ties,
		"grid-6x6":     grid,
	}
}

// weightOnlyBandwidth is a line rate at which a data packet's
// transmission time rounds to zero: the link's weight is its Delay.
const weightOnlyBandwidth = int64(1e15)

// heapRun is the route compiler's Dijkstra as it stood before the radix
// queue — a lazy-deletion binary heap with in-line sifts over separate
// dist and col arrays, reading the weight through wt — kept verbatim as
// sssp.run's referee.
func heapRun(c *Compiled, dst int, dist []time.Duration, col []int32) {
	type heapNode struct {
		d  time.Duration
		sw int32
	}
	for s := range dist {
		dist[s] = maxDist
		col[s] = hopUnreachable
	}
	dist[dst], col[dst] = 0, hopLocal
	h := []heapNode{{0, int32(dst)}}
	for len(h) > 0 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		// sift down
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].d < h[l].d {
				l = r
			}
			if h[l].d >= h[i].d {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		if top.d > dist[top.sw] { // stale entry (lazy deletion)
			continue
		}
		for i := c.adjOff[top.sw]; i < c.adjOff[top.sw+1]; i++ {
			v := c.adjSw[i]
			w := c.wt[c.adjHop[i]>>1]
			if w == downWt { // down links carry no routes
				continue
			}
			hop := c.adjHop[i] ^ 1 // the same link, seen from v
			if d := top.d + w; d < dist[v] {
				dist[v], col[v] = d, hop
				h = append(h, heapNode{d, v})
				// sift up
				j := len(h) - 1
				for j > 0 {
					p := (j - 1) / 2
					if h[p].d <= h[j].d {
						break
					}
					h[p], h[j] = h[j], h[p]
					j = p
				}
			} else if d == dist[v] && hop < col[v] {
				col[v] = hop
			}
		}
	}
}

// TestRunAgainstHeapReferee compares sssp.run with heapRun — distance
// and hop of every switch, toward every switch — on each corpus graph,
// as compiled and again with a tenth of its links taken down.
func TestRunAgainstHeapReferee(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		t.Run(name, func(t *testing.T) {
			c := mustCompile(t, g, eqDefaults())
			sc := newSSSP(c.Switches)
			dist, col := make([]time.Duration, c.Switches), make([]int32, c.Switches)
			check := func(tag string) {
				for dst := 0; dst < c.Switches; dst++ {
					heapRun(c, dst, dist, col)
					for s, n := range sc.run(c, dst) {
						if n.d != dist[s] || n.hop != col[s] {
							t.Fatalf("%s: toward %d, switch %d: run says (%v, hop %d), the heap (%v, hop %d)",
								tag, dst, s, n.d, n.hop, dist[s], col[s])
						}
					}
				}
			}
			check("as compiled")
			rng := rand.New(rand.NewSource(int64(len(g.Links))))
			downs := 0
			for range len(g.Links)/10 + 1 {
				if _, err := c.ApplyLinkChange(rng.Intn(len(c.Links)), LinkDown); err == nil {
					downs++
				}
			}
			if downs > 0 {
				check(fmt.Sprintf("%d links down", downs))
			}
		})
	}
}

func eqDefaults() Defaults {
	return Defaults{Bandwidth: 50_000, Delay: 50 * time.Millisecond, Buffer: 20, DataSize: 500}
}

func mustCompile(t *testing.T, g Graph, def Defaults) *Compiled {
	t.Helper()
	c, err := g.Compile(def)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// compileBatched compiles g with the column batch budget pinned to
// batchCells, restoring the package default.
func compileBatched(t *testing.T, g Graph, def Defaults, batchCells int) *Compiled {
	t.Helper()
	oldBatch := colBatchCells
	colBatchCells = batchCells
	defer func() { colBatchCells = oldBatch }()
	return mustCompile(t, g, def)
}

// refTable is refRoutes under c's current weights.
func refTable(t *testing.T, c *Compiled) []Hop {
	t.Helper()
	ref, err := refRoutes(c)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return ref
}

// checkAgainstRef compares every (switch, host) answer of c with the
// dense reference table.
func checkAgainstRef(t *testing.T, tag string, c *Compiled, ref []Hop) {
	t.Helper()
	nh := c.NumHosts()
	for s := 0; s < c.Switches; s++ {
		for h := 0; h < nh; h++ {
			want := ref[s*nh+h]
			got, isLocal := c.NextHop(s, h)
			if wantLocal := want.Link < 0; isLocal != wantLocal {
				t.Fatalf("%s: NextHop(%d,%d) local=%v want %v", tag, s, h, isLocal, wantLocal)
			}
			if want.Link >= 0 && got != want {
				t.Fatalf("%s: NextHop(%d,%d) = %+v want %+v", tag, s, h, got, want)
			}
		}
	}
}

// TestNextHopEquivalence pins the production compiler against the dense
// reference, exhaustively over every (switch, host) pair, for each
// corpus graph in three configurations: the default compile, a serial
// one, and one in many tiny column batches.
func TestNextHopEquivalence(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		t.Run(name, func(t *testing.T) {
			def := eqDefaults()
			serial := def
			serial.Workers = 1
			variants := map[string]*Compiled{
				"runs":         mustCompile(t, g, def),
				"runs-serial":  mustCompile(t, g, serial),
				"runs-batched": compileBatched(t, g, def, 1),
			}
			ref := refTable(t, variants["runs"])
			for vn, c := range variants {
				checkAgainstRef(t, vn, c, ref)
			}
		})
	}
}

// TestForEachHostRunCoversHosts checks the rows as a bulk install reads
// them (Row, which replaced the host-order ForEachHostRun): intervals are
// ascending, disjoint and cover every address exactly once, and every
// host whose address (Addr) falls inside one forwards the way the
// interval says — by the row lookup itself (NextHop, the "runs" leg) and
// by the dense reference table (refRoutes, the "dense" leg).
func TestForEachHostRunCoversHosts(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		for _, referee := range []string{"dense", "runs"} {
			t.Run(name+"/"+referee, func(t *testing.T) {
				c := mustCompile(t, g, eqDefaults())
				nh := c.NumHosts()
				lookup := c.NextHop
				if referee == "dense" {
					ref := refTable(t, c)
					lookup = func(s, h int) (Hop, bool) { return ref[s*nh+h], ref[s*nh+h].Link < 0 }
				}
				hostAt := make([]int, nh)
				for h := range nh {
					hostAt[c.Addr(h)] = h + 1
				}
				for a, h := range hostAt {
					if h == 0 {
						t.Fatalf("no host has address %d", a)
					}
				}
				for s := 0; s < c.Switches; s++ {
					ends, slots := decode(c.Row(s))
					start := 0
					for i, end := range ends {
						if int(end) <= start {
							t.Fatalf("switch %d: interval %d is [%d,%d)", s, i, start, end)
						}
						isLocal := slots[i] < 0
						var hop Hop
						if !isLocal {
							hop = c.SlotHop(s, int(slots[i]))
						}
						for _, h := range hostAt[start:end] {
							got, gotLocal := lookup(s, h-1)
							if gotLocal != isLocal || (!isLocal && got != hop) {
								t.Fatalf("switch %d host %d: row says (%+v,%v), %s lookup says (%+v,%v)",
									s, h-1, hop, isLocal, referee, got, gotLocal)
							}
						}
						start = int(end)
					}
					if start != nh {
						t.Fatalf("switch %d: row covers [0,%d), want [0,%d)", s, start, nh)
					}
				}
			})
		}
	}
}

// TestParallelCompileDeterminism compiles each corpus graph with
// several worker counts and requires identical forwarding state.
func TestParallelCompileDeterminism(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		t.Run(name, func(t *testing.T) {
			def := eqDefaults()
			def.Workers = 1
			base := mustCompile(t, g, def)
			for _, w := range []int{2, 3, 8} {
				def.Workers = w
				c := mustCompile(t, g, def)
				// Byte identity: row ids per switch and row contents must
				// match exactly — interning is serial in switch order, so
				// even the pool layout is worker-independent.
				for s := 0; s < c.Switches; s++ {
					if c.rowOf[s] != base.rowOf[s] {
						t.Fatalf("workers=%d: switch %d row id %d, serial %d", w, s, c.rowOf[s], base.rowOf[s])
					}
				}
				if len(c.pool.rows) != len(base.pool.rows) {
					t.Fatalf("workers=%d: %d pool rows, serial %d", w, len(c.pool.rows), len(base.pool.rows))
				}
				for r := range c.pool.rows {
					if !slices.Equal(c.pool.rows[r], base.pool.rows[r]) {
						t.Fatalf("workers=%d: pool row %d differs", w, r)
					}
				}
			}
		})
	}
}

// TestRunModeDisconnected pins the disconnected-graph error (message
// and indices).
func TestRunModeDisconnected(t *testing.T) {
	g := Graph{Switches: 4, Links: []LinkSpec{{A: 0, B: 1}, {A: 2, B: 3}}}
	_, err := g.Compile(eqDefaults())
	if err == nil {
		t.Fatal("disconnected graph compiled")
	}
	want := "topology: switch 2 cannot reach host 0 (switch 0): graph is disconnected"
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestRouteRuns sanity-checks the compressed-size diagnostic: a chain's
// forwarding state is three intervals per interior switch (left span,
// local host, right span) regardless of length.
func TestRouteRuns(t *testing.T) {
	c := mustCompile(t, Chain(64), eqDefaults())
	// Ends have 2 runs, interior switches 3.
	if want := 2*2 + 62*3; c.RouteRuns() != want {
		t.Fatalf("RouteRuns = %d, want %d", c.RouteRuns(), want)
	}
}
