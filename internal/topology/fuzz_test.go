package topology

import (
	"testing"
)

// FuzzNextHop drives the interval-run lookup against the naive dense
// reference (refRoutes) on randomized BA and Waxman graphs: every
// (switch, host) cell compared. The seed corpus covers both generators
// at several densities; `go test` replays the corpus, `go test
// -fuzz=FuzzNextHop` explores.
func FuzzNextHop(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), false)
	f.Add(int64(7), uint8(64), uint8(1), false)
	f.Add(int64(42), uint8(130), uint8(3), false)
	f.Add(int64(7), uint8(64), uint8(0), true)
	f.Add(int64(99), uint8(200), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, waxman bool) {
		nodes := 8 + int(n)%248
		var g Graph
		if waxman {
			g = Waxman(nodes, seed)
		} else {
			g = BarabasiAlbert(nodes, 1+int(m)%4, seed)
		}
		c := mustCompile(t, g, eqDefaults())
		checkAgainstRef(t, "rows", c, refTable(t, c, g))
	})
}
