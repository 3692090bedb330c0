package topology

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// FuzzNextHop drives the interval-run lookup against the naive dense
// reference (refRoutes) on randomized BA and Waxman graphs, every
// (switch, host) cell compared: as compiled, and again after one link
// change — a new weight, or a down (a bridge down is refused and must
// change nothing). With clusters > 0 the graph gets up to seven extra
// bunches of hosts, several to a switch and out of switch order, as
// clusteredGraph places them, so the addresses rows index are far from
// the host indices NextHop takes. With spokes > 0 (up to 130) one more
// switch is linked to that many others, so the widest degree, and with
// it the rows' slot width, crosses a power of two as the fuzzer
// explores; the seeds sit one below, at and one above the steps at 63
// and 127 links. The seed corpus covers both generators at several
// densities; `go test` replays the corpus, `go test -fuzz=FuzzNextHop`
// explores.
func FuzzNextHop(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), false, uint8(0), uint16(3), uint16(700), false, uint8(0))
	f.Add(int64(7), uint8(64), uint8(1), false, uint8(5), uint16(9), uint16(0), true, uint8(0))
	f.Add(int64(42), uint8(130), uint8(3), false, uint8(3), uint16(100), uint16(1), false, uint8(0))
	f.Add(int64(7), uint8(64), uint8(0), true, uint8(0), uint16(20), uint16(0), true, uint8(0))
	f.Add(int64(99), uint8(200), uint8(0), true, uint8(7), uint16(5), uint16(65535), false, uint8(0))
	f.Add(int64(3), uint8(20), uint8(2), false, uint8(6), uint16(31), uint16(0), true, uint8(0))
	for i, spokes := range []uint8{62, 63, 64, 126, 127, 128} {
		f.Add(int64(11+i), uint8(140), uint8(i%3), i%2 == 1, uint8(i%4), uint16(9999), uint16(40*i), i%3 == 0, spokes)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, waxman bool, clusters uint8, link, weight uint16, down bool, spokes uint8) {
		nodes := 8 + int(n)%248
		var g Graph
		if waxman {
			g = Waxman(nodes, seed)
		} else {
			g = BarabasiAlbert(nodes, 1+int(m)%4, seed)
		}
		if clusters %= 8; clusters > 0 {
			rng := rand.New(rand.NewSource(seed))
			for s := range nodes {
				g.Hosts = append(g.Hosts, HostSpec{Switch: s})
			}
			for range clusters {
				sw := rng.Intn(nodes)
				for k := 1 + rng.Intn(4); k > 0; k-- {
					g.Hosts = append(g.Hosts, HostSpec{Switch: sw})
				}
			}
		}
		if k := min(int(spokes)%131, nodes); k > 0 {
			for _, s := range rand.New(rand.NewSource(seed)).Perm(nodes)[:k] {
				g.Links = append(g.Links, LinkSpec{A: nodes, B: s})
			}
			g.Switches++
		}
		c := mustCompile(t, g, eqDefaults())
		widest := 0
		for s := range c.Switches {
			widest = max(widest, c.Degree(s))
		}
		if want := uint(bits.Len(uint(widest + 1))); c.w != want {
			t.Fatalf("widest degree %d: width %d, want %d", widest, c.w, want)
		}
		checkAgainstRef(t, "rows", c, refTable(t, c))

		li, w := int(link)%len(c.Links), LinkDown
		if !down {
			w = time.Duration(1+int(weight)) * 100 * time.Microsecond
		}
		if _, err := c.ApplyLinkChange(li, w); err != nil && (!down || c.LastChange().Tier != TierBridge) {
			t.Fatalf("link %d to %v: %v", li, w, err)
		}
		checkAgainstRef(t, fmt.Sprintf("link %d to %v", li, w), c, refTable(t, c))
	})
}
