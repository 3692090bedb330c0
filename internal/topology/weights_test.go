package topology

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// checkArcs requires the arc records and the weight sum to say what wt
// says: the one-setter rule, checked from outside.
func checkArcs(t *testing.T, tag string, c *Compiled) {
	t.Helper()
	if len(c.arcs) != len(c.adjHop) {
		t.Fatalf("%s: %d arc records for %d half-edges", tag, len(c.arcs), len(c.adjHop))
	}
	for i, hop := range c.adjHop {
		if want := (arc{w: c.wt[hop>>1], v: c.adjSw[i], hop: hop ^ 1}); c.arcs[i] != want {
			t.Fatalf("%s: arc %d (link %d) is %+v, wt and the adjacency say %+v", tag, i, hop>>1, c.arcs[i], want)
		}
	}
	sum := time.Duration(0)
	for _, w := range c.wt {
		if w != downWt {
			sum += w
		}
	}
	if c.wtSum != sum {
		t.Fatalf("%s: weight sum %v, the finite weights add to %v", tag, c.wtSum, sum)
	}
}

// TestArcsFollowWeights walks ApplyLinkChange through every outcome —
// applied, no-op, bridge tier, rejected and rolled back, refused for
// overflow — and a Clone, and checks the arc records after each.
func TestArcsFollowWeights(t *testing.T) {
	g := ring(12)
	g.Links = append(g.Links, LinkSpec{A: 11, B: 12}) // a bridge: link 12
	g.Switches = 13
	c := mustCompile(t, g, eqDefaults())
	checkArcs(t, "compiled", c)

	step := func(tag string, li int, w time.Duration, tier ChangeTier, wantErr string) {
		t.Helper()
		before := c.wt[li]
		_, err := c.ApplyLinkChange(li, w)
		switch {
		case wantErr == "" && err != nil:
			t.Fatalf("%s: %v", tag, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Fatalf("%s: error %v, want one about %q", tag, err, wantErr)
		case wantErr != "" && c.wt[li] != before:
			t.Fatalf("%s: refused, yet link %d went from %v to %v", tag, li, before, c.wt[li])
		}
		if got := c.LastChange().Tier; got != tier {
			t.Fatalf("%s: tier %v, want %v", tag, got, tier)
		}
		checkArcs(t, tag, c)
	}
	step("applied", 3, 200*time.Millisecond, TierRepair, "")
	step("no-op", 3, 200*time.Millisecond, TierNoOp, "")
	step("bridge", 12, 7*time.Millisecond, TierBridge, "")
	step("bridge down", 12, LinkDown, TierBridge, "disconnects the graph (bridge)")
	step("down", 3, LinkDown, TierRepair, "")
	step("rolled back", 8, LinkDown, TierRepair, "change disconnects switch")
	step("overflow", 5, maxDist-1, TierNoOp, "path costs would overflow")
	step("up again", 3, time.Millisecond, TierRepair, "")

	d := c.Clone()
	checkArcs(t, "clone", d)
	if _, err := d.ApplyLinkChange(0, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	checkArcs(t, "clone after its own change", d)
	checkArcs(t, "original after the clone's change", c)
	if c.wt[0] == d.wt[0] || c.arcs[0] == d.arcs[0] {
		t.Fatal("the clone's change reached the original")
	}

	// And along a random walk, every step of it.
	rng := rand.New(rand.NewSource(9))
	live := mustCompile(t, BarabasiAlbert(64, 2, 7), eqDefaults())
	for i := 0; i < 300; i++ {
		mutateOnce(t, "walk", rng, live, nil)
		checkArcs(t, "walk", live)
	}
}

// weighted returns g with every link's weight set outright (see
// weightOnlyBandwidth).
func weighted(g Graph, ws ...time.Duration) Graph {
	for i, w := range ws {
		g.Links[i].Bandwidth, g.Links[i].Delay = weightOnlyBandwidth, w
	}
	return g
}

// A path cost that overflows int64 used to wrap negative and win every
// comparison: wrong routes, no error. A simple path crosses a link at
// most once, so Compile bounds the sum of the weights instead — and a
// sum of exactly maxDist-1 is still fine.
func TestWeightSumOverflowIsRejected(t *testing.T) {
	const half = time.Duration(1) << 62

	c := mustCompile(t, weighted(Chain(3), half, half-2), eqDefaults()) // sums to maxDist-1
	for s, want := range [3][3]int32{                                   // the chain's routes (refRoutes' own sums would wrap here)
		{hopLocal, packHop(0, 0), packHop(0, 0)},
		{packHop(0, 1), hopLocal, packHop(1, 0)},
		{packHop(1, 1), packHop(1, 1), hopLocal},
	} {
		for h, p := range want {
			hop, isLocal := c.NextHop(s, h)
			if isLocal != (p == hopLocal) || (!isLocal && hop != unpackHop(p)) {
				t.Fatalf("sum = maxDist-1: NextHop(%d,%d) = %+v local=%v, want packed hop %d", s, h, hop, isLocal, p)
			}
		}
	}
	// The far end's distance is maxDist-1 itself; stepping back from it
	// prices a walk past maxDist, which must lose rather than wrap.
	if nd := newSSSP(3).run(c, 0); nd[2].d != maxDist-1 || nd[1].d != half || nd[1].hop != packHop(0, 1) {
		t.Fatalf("sum = maxDist-1: distances %+v", nd)
	}

	_, err := weighted(Chain(3), half, half-1).Compile(eqDefaults())
	if err == nil || !strings.Contains(err.Error(), "link 1 (weight") || !strings.Contains(err.Error(), "path costs would overflow") {
		t.Fatalf("sum = maxDist: %v, want an overflow error naming link 1", err)
	}
	// ISSUE 20's reproduction: four switches, 2·10⁶ h a trunk.
	def := eqDefaults()
	def.Delay = 2_000_000 * time.Hour
	if _, err := Chain(4).Compile(def); err == nil || !strings.Contains(err.Error(), "link 1 (weight 2000000h0m0.08s) takes the sum") {
		t.Fatalf("2000000h trunks: %v", err)
	}
	// One link is too much on its own, and so is a data packet whose
	// bit-nanoseconds do not fit.
	if _, err := weighted(Chain(2), maxDist).Compile(eqDefaults()); err == nil || !strings.Contains(err.Error(), "link 0: delay") {
		t.Fatalf("a link of weight maxDist: %v", err)
	}
	def = eqDefaults()
	def.DataSize = 2_000_000_000
	if _, err := Chain(2).Compile(def); err == nil || !strings.Contains(err.Error(), "data size 2000000000 bytes") {
		t.Fatalf("2 GB packets: %v", err)
	}
}

// ApplyLinkChange holds the same bound before it moves anything: a
// weight that is fine alone but overflows with the rest is refused, on
// every tier, and a down link's weight does not count.
func TestLinkChangeOverflowIsRejected(t *testing.T) {
	const big = time.Duration(1) << 61
	tri := Graph{Switches: 3, Links: []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2}}}
	c := mustCompile(t, weighted(tri, big, big, big), eqDefaults())
	before := snapshot(c)

	refused := func(tag string, li int, w time.Duration) {
		t.Helper()
		old := c.wt[li]
		_, err := c.ApplyLinkChange(li, w)
		if err == nil || !strings.Contains(err.Error(), "path costs would overflow") {
			t.Fatalf("%s: %v, want an overflow error", tag, err)
		}
		if c.wt[li] != old {
			t.Fatalf("%s: refused, yet the weight moved", tag)
		}
		for s, row := range snapshot(c) {
			if !rowsEqual(row, before[s]) {
				t.Fatalf("%s: refused, yet switch %d's routes moved", tag, s)
			}
		}
		checkArcs(t, tag, c)
	}
	room := maxDist - 1 - 2*big // what link 2 may weigh beside the other two
	refused("one past the room", 2, room+1)
	if _, err := c.ApplyLinkChange(2, room); err != nil {
		t.Fatalf("exactly the room: %v", err)
	}
	before = snapshot(c)
	checkArcs(t, "exactly the room", c)
	refused("another link, one more nanosecond", 0, big+1)

	// Down, link 0 leaves the sum: link 1 may take its share — and then
	// link 0 cannot come back at its old weight.
	if _, err := c.ApplyLinkChange(0, LinkDown); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyLinkChange(1, 2*big-1); err != nil {
		t.Fatalf("link 1 into the room link 0 left: %v", err)
	}
	before = snapshot(c)
	refused("link 0 back up", 0, big)
	if _, err := c.ApplyLinkChange(0, 1); err != nil {
		t.Fatalf("link 0 back up at 1 ns: %v", err)
	}
	ref := c.Clone()
	if err := ref.RecomputeRoutes(); err != nil {
		t.Fatal(err)
	}
	checkSame(t, "after the walk", c, ref)

	// The bridge tier checks too.
	ch := mustCompile(t, weighted(Chain(3), big, big), eqDefaults())
	if _, err := ch.ApplyLinkChange(0, maxDist-big); err == nil || ch.LastChange().Tier != TierNoOp {
		t.Fatalf("bridge weight past the bound: err %v, stats %+v", err, ch.LastChange())
	}
	if _, err := ch.ApplyLinkChange(0, maxDist-1-big); err != nil {
		t.Fatal(err)
	}
	checkArcs(t, "bridge at the bound", ch)
}
