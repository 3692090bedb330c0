package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// checkLoopFree walks c's next hops from every switch toward every host
// and requires each walk to reach the host's switch in fewer than
// Switches hops: no route revisits a switch.
func checkLoopFree(t *testing.T, tag string, c *Compiled) {
	t.Helper()
	for h := range c.NumHosts() {
		for s := range c.Switches {
			sw, hops := s, 0
			for {
				hop, isLocal := c.NextHop(sw, h)
				if isLocal {
					break
				}
				if hops++; hops >= c.Switches {
					t.Fatalf("%s: from switch %d, host %d (switch %d) is not reached in %d hops: the route loops",
						tag, s, h, c.HostSwitch(h), hops)
				}
				if l := c.Links[hop.Link]; hop.Dir == 0 {
					sw = l.B
				} else {
					sw = l.A
				}
			}
			if sw != c.HostSwitch(h) {
				t.Fatalf("%s: from switch %d, host %d is local at switch %d, not its own %d", tag, s, h, sw, c.HostSwitch(h))
			}
		}
	}
}

// TestRoutesNeverLoop draws BA, Waxman and tree-plus-chords graphs whose
// links may have no delay or a line rate of 2⁶² bit/s, at which a data
// packet takes 0 ns: a link with both weighs 0. Every graph Compile
// accepts must route loop-free, as compiled and after each of a few link
// changes down to the smallest weight; every graph it refuses must hold a
// zero-weight link, and the error must name one. A quarter of the graphs
// have every link at weight 0, and a quarter exactly one: ties between
// neighbours used to let each route through the other.
func TestRoutesNeverLoop(t *testing.T) {
	const fast = int64(1) << 62
	def := Defaults{Bandwidth: 50_000, Buffer: 20, DataSize: 500}
	rng := rand.New(rand.NewSource(46))
	accepted, refused := 0, 0
	for trial := range 48 {
		n := 3 + rng.Intn(28)
		var g Graph
		switch trial % 3 {
		case 0:
			g = BarabasiAlbert(n, 1+rng.Intn(2), rng.Int63())
		case 1:
			g = Waxman(n, rng.Int63())
		default:
			g = Graph{Switches: n}
			for i := 1; i < n; i++ {
				g.Links = append(g.Links, LinkSpec{A: rng.Intn(i), B: i})
			}
			for range 1 + rng.Intn(n) {
				if a, b := rng.Intn(n), rng.Intn(n); a != b {
					g.Links = append(g.Links, LinkSpec{A: a, B: b})
				}
			}
		}
		// Each link: no delay, 1 ns, or 1-3 ms; the default rate or 2⁶²
		// bit/s. Outside the all-zero trials, never both zero but for one.
		zero := -1
		if trial%4 == 1 {
			zero = rng.Intn(len(g.Links))
		}
		for i := range g.Links {
			l := &g.Links[i]
			switch {
			case trial%4 == 0 || i == zero:
				l.Bandwidth = fast
			case rng.Intn(2) == 0:
				l.Bandwidth = fast
				l.Delay = []time.Duration{time.Nanosecond, time.Millisecond, 3 * time.Millisecond}[rng.Intn(3)]
			default:
				l.Delay = []time.Duration{0, time.Nanosecond, 2 * time.Millisecond}[rng.Intn(3)]
			}
		}
		tag := fmt.Sprintf("trial %d (%d switches, %d links)", trial, n, len(g.Links))
		c, err := g.Compile(def)
		if trial%4 <= 1 {
			if err == nil || !strings.Contains(err.Error(), "has routing weight 0") {
				t.Errorf("%s: a zero-weight link compiled: err %v", tag, err)
			}
			if err == nil {
				checkLoopFree(t, tag, c)
			}
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		accepted++
		checkLoopFree(t, tag, c)
		for step := range 4 {
			li := rng.Intn(len(c.Links))
			w := []time.Duration{LinkDown, time.Nanosecond, time.Duration(1 + rng.Int63n(int64(5*time.Millisecond)))}[rng.Intn(3)]
			if _, err := c.ApplyLinkChange(li, w); err != nil {
				continue // a bridge taken down
			}
			checkLoopFree(t, fmt.Sprintf("%s, step %d: link %d to %v", tag, step, li, w), c)
		}
	}
	if accepted < 20 || refused < 20 {
		t.Fatalf("%d graphs compiled, %d refused: the draw is lopsided", accepted, refused)
	}
}
