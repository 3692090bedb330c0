package topology

import (
	"runtime"
	"testing"
	"time"
)

// compileCost compiles g once with def and returns the bytes and the
// objects the compile allocated. A collection first, so the numbers do
// not carry a previous test's garbage.
func compileCost(t *testing.T, g Graph, def Defaults) (bytes, objects uint64) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := g.Compile(def); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// TestMergedRowsAreExact checks the rows the tiled merge makes, at
// every worker count and batch size (a column a batch, three, the
// default): each holds exactly its intervals, ends strictly ascending
// up to the host count, and maximal, no two neighbouring intervals leaving by the same slot; and
// whatever the batching, the routes are the same, in layout and in what
// they forward.
func TestMergedRowsAreExact(t *testing.T) {
	for name, g := range map[string]Graph{"clustered-64": clusteredGraph(), "ba-600": BarabasiAlbert(600, 2, 3), "chain-700": Chain(700)} {
		base := mustCompile(t, g, eqDefaults())
		want, wantHops := routesDigest(base), nextHopDigest(base)
		for _, cells := range []int{g.Switches, 3 * g.Switches, colBatchCells} {
			for _, w := range []int{1, 2, 8} {
				def := eqDefaults()
				def.Workers = w
				c := compileBatched(t, g, def, cells)
				if got := routesDigest(c); got != want {
					t.Errorf("%s, %d cells a batch, %d workers: digest %s, want %s", name, cells, w, got, want)
				}
				if got := nextHopDigest(c); got != wantHops {
					t.Errorf("%s, %d cells a batch, %d workers: next-hop digest %s, want %s", name, cells, w, got, wantHops)
				}
				for r, words := range c.pool.rows {
					if words == nil {
						continue
					}
					if cap(words) != len(words) {
						t.Fatalf("%s: row %d has %d intervals (room for %d)", name, r, len(words), cap(words))
					}
					ends, slots := decode(Row{words, c.w})
					if ends[len(ends)-1] != int32(len(c.Hosts)) {
						t.Fatalf("%s: row %d ends at %d, not at the host count %d", name, r, ends[len(ends)-1], len(c.Hosts))
					}
					for k := 1; k < len(ends); k++ {
						if ends[k] <= ends[k-1] || slots[k] == slots[k-1] {
							t.Fatalf("%s: row %d intervals %d and %d: ends %d, %d slots %d, %d", name, r, k-1, k, ends[k-1], ends[k], slots[k-1], slots[k])
						}
					}
				}
			}
		}
	}
}

// TestCompileAllocations holds the route compile of the mesh workload's
// graph, BarabasiAlbert(2048, 2, 1) at two workers, to its memory budget
// (DESIGN.md §13): the columns, the workers' tile scratch and the
// interned rows, with no per-switch run list grown on the way. The
// bounds sit about 10 % above what the compile allocates; the run lists
// the merge used to grow took it to 65.9 MB in 29 141 objects, rows over
// host indices rather than addresses to 30.0 MB, and rows of an int32
// end beside an int32 slot rather than one word an interval to 21.0 MB.
func TestCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the compile's")
	}
	def := Defaults{Bandwidth: 50_000, Delay: 2 * time.Millisecond, Buffer: 20, DataSize: 500, Workers: 2}
	g := BarabasiAlbert(2048, 2, 1)
	bytes, objects := compileCost(t, g, def)
	for range 2 { // the smallest of three: a concurrent collection can add a little
		b, o := compileCost(t, g, def)
		bytes, objects = min(bytes, b), min(objects, o)
	}
	const mb = 1 << 20
	t.Logf("BA(2048,2,1) at 2 workers: %.1f MB in %d objects", float64(bytes)/mb, objects)
	// 17.3 MB in about 3 345 objects when the bounds were set.
	const maxBytes, maxObjects = 19 * mb, 3700
	if bytes > maxBytes {
		t.Errorf("compile allocated %.1f MB, budget %d MB", float64(bytes)/mb, maxBytes/mb)
	}
	if objects > maxObjects {
		t.Errorf("compile allocated %d objects, budget %d", objects, maxObjects)
	}
}
