package topology

import (
	"fmt"
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
// multi-host and override shapes, and seeded random graphs.
func equivalenceGraphs() map[string]Graph {
	uneven := Chain(6)
	uneven.Links[2].Delay = 300 * time.Millisecond // push routes off the obvious line metric
	uneven.Links[4].Bandwidth = 1_000_000
	multi := Chain(3)
	multi.Hosts = []HostSpec{{0}, {0}, {1}, {2}, {2}, {2}}
	override := Graph{
		Switches: 3,
		Links:    []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2, Delay: 500 * time.Millisecond}},
		Routes:   []RouteSpec{{At: 0, Dst: 2, Via: 2}},
	}
	mesh := Graph{Switches: 5}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			mesh.Links = append(mesh.Links, LinkSpec{A: a, B: b})
		}
	}
	return map[string]Graph{
		"dumbbell":    Dumbbell(),
		"chain-16":    Chain(16),
		"parking-lot": ParkingLot(4),
		"uneven":      uneven,
		"multi-host":  multi,
		"override":    override,
		"mesh-5":      mesh,
		"ba-64":       BarabasiAlbert(64, 2, 7),
		"ba-200":      BarabasiAlbert(200, 3, 42),
		"waxman-64":   Waxman(64, 7),
		"waxman-300":  Waxman(300, 99),
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

// refTable is refRoutes under c's current weights plus g's route
// overrides, which the reference does not model, applied the historical
// way: straight into the dense cell.
func refTable(t *testing.T, c *Compiled, g Graph) []Hop {
	t.Helper()
	ref, err := refRoutes(c)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, r := range g.Routes {
		hop, ok := c.hopToward(r.At, r.Via)
		if !ok {
			t.Fatalf("override via %d not a neighbor", r.Via)
		}
		ref[r.At*c.NumHosts()+r.Dst] = hop
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
			ref := refTable(t, variants["runs"], g)
			for vn, c := range variants {
				checkAgainstRef(t, vn, c, ref)
			}
		})
	}
}

// TestForEachHostRunCoversHosts checks the bulk-install iterator:
// intervals are ascending, disjoint and cover every host exactly once,
// and every host inside one forwards the way the interval says — by the
// row lookup itself (NextHop, the "runs" leg) and by the dense reference
// table (refRoutes, the "dense" leg).
func TestForEachHostRunCoversHosts(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		for _, referee := range []string{"dense", "runs"} {
			t.Run(name+"/"+referee, func(t *testing.T) {
				c := mustCompile(t, g, eqDefaults())
				nh := c.NumHosts()
				lookup := c.NextHop
				if referee == "dense" {
					ref := refTable(t, c, g)
					lookup = func(s, h int) (Hop, bool) { return ref[s*nh+h], ref[s*nh+h].Link < 0 }
				}
				for s := 0; s < c.Switches; s++ {
					next := 0
					c.ForEachHostRun(s, func(h0, h1 int, hop Hop, isLocal bool) {
						if h0 != next || h1 <= h0 {
							t.Fatalf("switch %d: run [%d,%d) after %d", s, h0, h1, next)
						}
						for h := h0; h < h1; h++ {
							got, gotLocal := lookup(s, h)
							if gotLocal != isLocal || (!isLocal && got != hop) {
								t.Fatalf("switch %d host %d: run says (%+v,%v), %s lookup says (%+v,%v)",
									s, h, hop, isLocal, referee, got, gotLocal)
							}
						}
						next = h1
					})
					if next != nh {
						t.Fatalf("switch %d: runs cover [0,%d), want [0,%d)", s, next, nh)
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
				if len(c.pool.ends) != len(base.pool.ends) {
					t.Fatalf("workers=%d: %d pool rows, serial %d", w, len(c.pool.ends), len(base.pool.ends))
				}
				for r := range c.pool.ends {
					for i := range c.pool.ends[r] {
						if c.pool.ends[r][i] != base.pool.ends[r][i] || c.pool.slots[r][i] != base.pool.slots[r][i] {
							t.Fatalf("workers=%d: pool row %d entry %d differs", w, r, i)
						}
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
