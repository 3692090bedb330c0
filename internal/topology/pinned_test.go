package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// routesDigest hashes the whole compiled forwarding state: every
// switch's row id, then every pool row's interval ends and slots, each
// decoded to the int32 halves rows were stored as before they were
// packed into words — so the digests taken on the two-slice layout pin
// the packed rows' content. Two compiles with the same digest forward,
// intern and number their rows identically.
func routesDigest(c *Compiled) string {
	h := sha256.New()
	put := func(vs []int32) {
		binary.Write(h, binary.LittleEndian, int32(len(vs)))
		binary.Write(h, binary.LittleEndian, vs)
	}
	put(c.rowOf)
	for _, words := range c.pool.rows {
		ends, slots := decode(Row{words, c.w})
		put(ends)
		put(slots)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decode unpacks a row into its interval ends and slots.
func decode(r Row) (ends, slots []int32) {
	for i := range r.Len() {
		ends, slots = append(ends, r.End(i)), append(slots, r.Slot(i))
	}
	return ends, slots
}

// nextHopDigest hashes what c forwards, free of any row format: for
// every switch and every host in host-index order, the packed link
// direction the switch sends the host's traffic out of, or hopLocal.
// Two compiles with the same digest forward every packet alike, however
// their rows are laid out.
func nextHopDigest(c *Compiled) string {
	h := sha256.New()
	col := make([]int32, c.NumHosts())
	for s := 0; s < c.Switches; s++ {
		for dst := range col {
			hop, isLocal := c.NextHop(s, dst)
			col[dst] = hopLocal
			if !isLocal {
				col[dst] = packHop(hop.Link, hop.Dir)
			}
		}
		binary.Write(h, binary.LittleEndian, col)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clusteredGraph is 64 Waxman switches with hosts bunched on a few of
// them — several per switch, some switches owning two separate host
// intervals.
func clusteredGraph() Graph {
	g := Waxman(64, 13)
	rng := rand.New(rand.NewSource(13))
	for cluster := 0; cluster < 14; cluster++ {
		sw := rng.Intn(64)
		if cluster >= 10 { // a second interval for an earlier switch
			sw = g.Hosts[rng.Intn(len(g.Hosts)-1)].Switch
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			g.Hosts = append(g.Hosts, HostSpec{Switch: sw})
		}
	}
	return g
}

// TestCompiledRoutesPinned holds the route compiler to the forwarding
// state it has produced since commit 56db484 (binary-heap Dijkstra,
// per-cell merge), bit for bit. The next-hop digests pin what every
// switch forwards, whatever the row layout; they were taken while rows
// still indexed host indices. The layout digests pin the rows
// themselves; those of the meshes moved, and only they, when rows began
// to index addresses (chain-4096's order is the identity). The
// clustered-64 pair was taken again when that graph lost its one route
// override, from the compiler that still had them. Every worker
// count and a compile forced into three-column batches must reproduce
// both.
func TestCompiledRoutesPinned(t *testing.T) {
	chain := Chain(4096)
	chain.Links[100].Delay = 3 * time.Millisecond
	chain.Links[2048].Delay = 700 * time.Millisecond
	chain.Links[4000].Bandwidth = 1_000_000
	for _, tc := range []struct {
		name         string
		g            Graph
		layout, hops string
	}{
		{"ba-2048", BarabasiAlbert(2048, 2, 1),
			"445cc164727f78de2af6a5c8ac1254994dbd0a1f3375e39587cd54bba968b588",
			"7db0b63b23415ab637a4c0f4d98876674087cd648b0b8a1abd524ca85cb68a1b"},
		{"waxman-2048", Waxman(2048, 1),
			"acc8dbed137286f22d9698f7930cc343406c110b39cf1aed5175b1ad3aa28cf6",
			"963a4dfc57d2f3295d363add309c74dda00d0f7818acf1f3fd5943a4a345e156"},
		{"chain-4096", chain,
			"05c23cf12b94903f1437b6fa0993a57f733dd080f68d41a33031805c7d4a2ed7",
			"5dc687dcd73388f9b40286ff2f85d16e8a757b3b3b67d67959e1c074549f5fe5"},
		{"clustered-64", clusteredGraph(),
			"c5d3cdd54da62867f5ea60370f504110011501673b3218d876a94f98a7c4887e",
			"ec758205de230328131f4d356fdd9b326841ff90220fb4ed0a75b2c34fb56061"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(tag string, c *Compiled) {
				if got := routesDigest(c); got != tc.layout {
					t.Errorf("%s: layout digest %s, want %s", tag, got, tc.layout)
				}
				if got := nextHopDigest(c); got != tc.hops {
					t.Errorf("%s: next-hop digest %s, want %s", tag, got, tc.hops)
				}
			}
			def := eqDefaults()
			for _, w := range []int{1, 2, 8} {
				def.Workers = w
				check(fmt.Sprintf("workers=%d", w), mustCompile(t, tc.g, def))
			}
			check("three-column batches", compileBatched(t, tc.g, def, 3*tc.g.Switches))
		})
	}
}

// TestCompileStats pins CompileStats: the counts depend on the graph and the weights, not on the worker count,
// and every run pops each switch exactly once that is not stale.
func TestCompileStats(t *testing.T) {
	def := eqDefaults()
	got := mustCompile(t, Chain(16), def).CompileStats()
	if want := (CompileStats{Columns: 16, Batches: 1, Pushes: 256, DistinctRows: 16, RouteBytes: 16*4 + 2*(2*4+40) + 14*(3*4+40)}); got != want {
		t.Fatalf("chain-16: %+v, want %+v", got, want)
	}
	for name, g := range equivalenceGraphs() {
		def.Workers = 1
		c := mustCompile(t, g, def)
		base := c.CompileStats()
		if base.Pushes-base.StalePops != int64(base.Columns*c.Switches) {
			t.Errorf("%s: %d pushes, %d stale: %d columns over %d switches should settle %d", name,
				base.Pushes, base.StalePops, base.Columns, c.Switches, base.Columns*c.Switches)
		}
		if base.DistinctRows != c.DistinctRows() || base.RouteBytes != c.RouteBytes() {
			t.Errorf("%s: stats say %d rows in %d bytes, the tables %d in %d", name,
				base.DistinctRows, base.RouteBytes, c.DistinctRows(), c.RouteBytes())
		}
		for _, w := range []int{2, 8} {
			def.Workers = w
			st := mustCompile(t, g, def).CompileStats()
			if st != base {
				t.Errorf("%s: workers=%d: %+v, serial %+v", name, w, st, base)
			}
		}
		batched := compileBatched(t, g, def, 3*g.Switches).CompileStats()
		if want := (base.Columns + 2) / 3; batched.Batches != want || batched.Pushes != base.Pushes {
			t.Errorf("%s: three-column batches: %+v, want %d batches and the pushes of %+v", name, batched, want, base)
		}
	}
	if st := mustCompile(t, equivalenceGraphs()["wide-weights"], def).CompileStats(); st.StalePops == 0 {
		t.Error("wide-weights: no stale pop in 120 runs over random weights — the counter is not counting")
	}
}
