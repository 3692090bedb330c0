package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"
)

// routesDigest hashes the whole compiled forwarding state: every
// switch's row id, then every pool row's intervals and slots. Two
// compiles with the same digest forward, intern and number their rows
// identically.
func routesDigest(c *Compiled) string {
	h := sha256.New()
	put := func(vs []int32) {
		binary.Write(h, binary.LittleEndian, int32(len(vs)))
		binary.Write(h, binary.LittleEndian, vs)
	}
	put(c.rowOf)
	for r := range c.pool.ends {
		put(c.pool.ends[r])
		put(c.pool.slots[r])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clusteredGraph is 64 Waxman switches with hosts bunched on a few of
// them — several per switch, some switches owning two separate host
// intervals — and one route override.
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
	l := g.Links[len(g.Links)-1]
	dst := 0
	for g.Hosts[dst].Switch == l.A {
		dst++
	}
	g.Routes = []RouteSpec{{At: l.A, Dst: dst, Via: l.B}}
	return g
}

// TestCompiledRoutesPinned holds the route compiler to the forwarding
// state commit 56db484 produced (binary-heap Dijkstra, per-cell merge),
// bit for bit: the digests below were taken there. Every worker count
// and a compile forced into three-column batches must reproduce them.
func TestCompiledRoutesPinned(t *testing.T) {
	chain := Chain(4096)
	chain.Links[100].Delay = 3 * time.Millisecond
	chain.Links[2048].Delay = 700 * time.Millisecond
	chain.Links[4000].Bandwidth = 1_000_000
	for _, tc := range []struct {
		name   string
		g      Graph
		digest string
	}{
		{"ba-2048", BarabasiAlbert(2048, 2, 1), "3514ecc42ceac78dd5694b535bda9ff1508e357322d164b8f9cc247523e24680"},
		{"waxman-2048", Waxman(2048, 1), "0906d6af3d4eccdef2479b3b6ff27da1aa0fbaddfee435068930b5d521b3b0c0"},
		{"chain-4096", chain, "05c23cf12b94903f1437b6fa0993a57f733dd080f68d41a33031805c7d4a2ed7"},
		{"clustered-64", clusteredGraph(), "fa4c8776e8d6f43d310650db8c755b3606ad04f68c8b9a52f06e9ec4b172e759"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def := eqDefaults()
			for _, w := range []int{1, 2, 8} {
				def.Workers = w
				if got := routesDigest(mustCompile(t, tc.g, def)); got != tc.digest {
					t.Errorf("workers=%d: digest %s, want %s", w, got, tc.digest)
				}
			}
			if got := routesDigest(compileBatched(t, tc.g, def, 3*tc.g.Switches)); got != tc.digest {
				t.Errorf("three-column batches: digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestCompileStats pins CompileStats: the counts depend on the graph and the weights, not on the worker count,
// and every run pops each switch exactly once that is not stale.
func TestCompileStats(t *testing.T) {
	def := eqDefaults()
	got := mustCompile(t, Chain(16), def).CompileStats()
	if want := (CompileStats{Columns: 16, Batches: 1, Pushes: 256, DistinctRows: 16, RouteBytes: 16*4 + 2*(2*8+64) + 14*(3*8+64)}); got != want {
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
