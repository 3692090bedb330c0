package topology

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// def is a paper-standard defaults block: 50 Kbps trunks, 10 ms delay,
// 20-packet buffers, 500 B data packets.
func def() Defaults {
	return Defaults{Bandwidth: 50_000, Delay: 10 * time.Millisecond, Buffer: 20, DataSize: 500}
}

func TestGenerators(t *testing.T) {
	d := Dumbbell()
	if d.Switches != 2 || len(d.Links) != 1 {
		t.Fatalf("dumbbell = %+v", d)
	}
	c := Chain(5)
	if c.Switches != 5 || len(c.Links) != 4 {
		t.Fatalf("chain = %+v", c)
	}
	for i, l := range c.Links {
		if l.A != i || l.B != i+1 {
			t.Fatalf("chain link %d = %+v", i, l)
		}
	}
	p := ParkingLot(3)
	if p.Switches != 4 || len(p.Links) != 3 {
		t.Fatalf("parking lot = %+v", p)
	}
}

func TestCompileChainRoutes(t *testing.T) {
	c, err := Chain(4).Compile(def())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumHosts() != 4 {
		t.Fatalf("hosts = %d", c.NumHosts())
	}
	// Switch 0 forwards to host 3 via link 0 rightward; switch 3 to host
	// 0 via link 2 leftward.
	if hop, local := c.NextHop(0, 3); local || hop != (Hop{Link: 0, Dir: 0}) {
		t.Fatalf("next(0,3) = %+v local=%v", hop, local)
	}
	if hop, local := c.NextHop(3, 0); local || hop != (Hop{Link: 2, Dir: 1}) {
		t.Fatalf("next(3,0) = %+v local=%v", hop, local)
	}
	// Local delivery at the attachment switch.
	if _, local := c.NextHop(2, 2); !local {
		t.Fatal("host 2 not local at switch 2")
	}
	if got := c.PathHops(0, 3); got != 3 {
		t.Fatalf("path 0→3 = %d hops", got)
	}
	if got := c.PathHops(1, 1); got != 0 {
		t.Fatalf("path 1→1 = %d hops", got)
	}
}

func TestCompileResolvesDefaults(t *testing.T) {
	g := Graph{
		Switches: 3,
		Links: []LinkSpec{
			{A: 0, B: 1},
			{A: 1, B: 2, Bandwidth: 1_000_000, Delay: time.Second, Buffer: Unbounded},
		},
	}
	c, err := g.Compile(def())
	if err != nil {
		t.Fatal(err)
	}
	if l := c.Links[0]; l.Bandwidth != 50_000 || l.Delay != 10*time.Millisecond || l.Buffer != 20 {
		t.Fatalf("link 0 = %+v", l)
	}
	if l := c.Links[1]; l.Bandwidth != 1_000_000 || l.Delay != time.Second || l.Buffer != 0 {
		t.Fatalf("link 1 = %+v (want unbounded buffer 0)", l)
	}
}

// TestShortestPathPrefersFastRoute builds a triangle where the direct
// 0–2 link is slow and the two-hop detour via 1 is fast; routing must
// take the detour by total delay, not hop count.
func TestShortestPathPrefersFastRoute(t *testing.T) {
	g := Graph{
		Switches: 3,
		Links: []LinkSpec{
			{A: 0, B: 2, Delay: 10 * time.Second}, // slow direct
			{A: 0, B: 1, Delay: time.Millisecond},
			{A: 1, B: 2, Delay: time.Millisecond},
		},
	}
	c, err := g.Compile(def())
	if err != nil {
		t.Fatal(err)
	}
	if hop, _ := c.NextHop(0, 2); hop != (Hop{Link: 1, Dir: 0}) {
		t.Fatalf("next(0, host2) = %+v, want detour via switch 1", hop)
	}
	if got := c.PathHops(0, 2); got != 2 {
		t.Fatalf("path hops = %d, want 2", got)
	}
}

// TestEqualCostTieBreak gives two identical parallel paths; the lowest
// link index must win, deterministically.
func TestEqualCostTieBreak(t *testing.T) {
	g := Graph{
		Switches: 4,
		// 0–1–3 and 0–2–3, identical weights.
		Links: []LinkSpec{
			{A: 0, B: 1}, {A: 1, B: 3},
			{A: 0, B: 2}, {A: 2, B: 3},
		},
	}
	for i := 0; i < 10; i++ {
		c, err := g.Compile(def())
		if err != nil {
			t.Fatal(err)
		}
		if hop, _ := c.NextHop(0, 3); hop != (Hop{Link: 0, Dir: 0}) {
			t.Fatalf("iteration %d: next(0, host3) = %+v, want link 0", i, hop)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]Graph{
		"no switches":       {},
		"link out of range": {Switches: 2, Links: []LinkSpec{{A: 0, B: 5}}},
		"self loop":         {Switches: 2, Links: []LinkSpec{{A: 1, B: 1}}},
		"host out of range": {Switches: 2, Links: []LinkSpec{{A: 0, B: 1}}, Hosts: []HostSpec{{Switch: 7}}},
		"disconnected":      {Switches: 3, Links: []LinkSpec{{A: 0, B: 1}}},
		"no bandwidth":      {Switches: 2, Links: []LinkSpec{{A: 0, B: 1}}},
	}
	for name, g := range cases {
		d := def()
		if name == "no bandwidth" {
			d.Bandwidth = 0
		}
		_, err := g.Compile(d)
		if err == nil {
			t.Errorf("%s: compiled without error", name)
			continue
		}
		// Resolve is Compile's validation half: the same error, text
		// included, without the route compile.
		if _, rerr := g.Resolve(d); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Resolve error %v, Compile error %v", name, rerr, err)
		}
	}
}

// TestResolveMatchesRouteCompiler pins Resolve's O(V+E) connectivity
// sweep against what it replaces as the first reporter of a
// disconnected graph: the route compiler's own per-column check, run
// here directly on the unvalidated adjacency. Random forests with
// random host placement (several hosts per switch, hosts out of switch
// order, host-less components) must name the same switch and host.
func TestResolveMatchesRouteCompiler(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	disconnected := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		g := Graph{Switches: n}
		for i := 1; i < n; i++ {
			if rng.Intn(4) > 0 { // drop a quarter of the tree edges
				g.Links = append(g.Links, LinkSpec{A: rng.Intn(i), B: i})
			}
		}
		if rng.Intn(2) == 0 {
			for h := 1 + rng.Intn(2*n); h > 0; h-- {
				g.Hosts = append(g.Hosts, HostSpec{Switch: rng.Intn(n)})
			}
		}
		sk, err := g.Resolve(def())

		// The route compiler on the same graph, validation bypassed.
		raw := &Compiled{Skeleton: Skeleton{Switches: n, Hosts: g.Hosts}, workers: 1 + rng.Intn(3)}
		if len(raw.Hosts) == 0 {
			for i := 0; i < n; i++ {
				raw.Hosts = append(raw.Hosts, HostSpec{Switch: i})
			}
		}
		for _, ls := range g.Links {
			raw.Links = append(raw.Links, Link{A: ls.A, B: ls.B})
			raw.wt = append(raw.wt, time.Millisecond)
		}
		raw.buildCSR()
		raw.buildOrder()
		want := raw.computeRoutes()

		switch {
		case want == nil && err != nil:
			t.Fatalf("trial %d: Resolve rejected a connected graph: %v", trial, err)
		case want != nil && (err == nil || err.Error() != want.Error()):
			t.Fatalf("trial %d: Resolve error %v, route compiler says %v", trial, err, want)
		case want == nil && (sk.Switches != n || len(sk.Links) != len(g.Links) || sk.NumHosts() != len(raw.Hosts)):
			t.Fatalf("trial %d: skeleton %d switches, %d links, %d hosts; graph has %d, %d, %d",
				trial, sk.Switches, len(sk.Links), sk.NumHosts(), n, len(g.Links), len(raw.Hosts))
		}
		if want != nil {
			disconnected++
		}
	}
	if disconnected < 50 {
		t.Fatalf("only %d of 200 trials were disconnected — corpus too tame", disconnected)
	}
}

func TestMultipleHostsPerSwitch(t *testing.T) {
	g := Graph{
		Switches: 2,
		Links:    []LinkSpec{{A: 0, B: 1}},
		Hosts:    []HostSpec{{Switch: 0}, {Switch: 0}, {Switch: 1}},
	}
	c, err := g.Compile(def())
	if err != nil {
		t.Fatal(err)
	}
	if _, local := c.NextHop(0, 1); !local {
		t.Fatal("host 1 should be local at switch 0")
	}
	if hop, local := c.NextHop(0, 2); local || hop != (Hop{Link: 0, Dir: 0}) {
		t.Fatalf("next(0, host2) = %+v", hop)
	}
	if got := c.PathHops(0, 1); got != 0 {
		t.Fatalf("same-switch path = %d hops", got)
	}
}

func TestWeightMetric(t *testing.T) {
	c, err := Dumbbell().Compile(def())
	if err != nil {
		t.Fatal(err)
	}
	// 500 B at 50 Kbps = 80 ms transmission + 10 ms propagation.
	if w := c.Weight(0); w != 90*time.Millisecond {
		t.Fatalf("weight = %v, want 90ms", w)
	}
}

// TestCheckSize pins the limits to the packed representations they
// protect: the largest counts pass, one more of anything does not, and
// Resolve refuses an oversized graph before it allocates a host list.
func TestCheckSize(t *testing.T) {
	if err := CheckSize(MaxSwitches, MaxLinks, MaxHosts); err != nil {
		t.Fatalf("the limits themselves: %v", err)
	}
	if packHop(MaxLinks, 1) < 0 || int32(MaxHosts)+1 < 0 {
		t.Fatal("the limits overflow the int32 forms they are meant to fit")
	}
	for _, over := range [][3]int{{MaxSwitches + 1, 0, 0}, {2, MaxLinks + 1, 2}, {2, 1, MaxHosts + 1}} {
		if err := CheckSize(over[0], over[1], over[2]); err == nil {
			t.Errorf("CheckSize%v: no error", over)
		}
	}
	if _, err := (Graph{Switches: 3_000_000_000}).Resolve(def()); err == nil || !strings.Contains(err.Error(), "is too many") {
		t.Fatalf("Resolve of 3·10⁹ switches: %v", err)
	}
}

// TestAddressOrder pins the locality order on a graph where it differs
// from the switch index, from the breadth-first visiting order and from
// a depth-first preorder: switch 3 is linked to 5 and to 4, and belongs
// under 4, the first switch of the level above that it is linked to. The
// hosts of a switch are consecutive, in host order; a switch the tree
// from switch 0 misses roots its own tree after it.
func TestAddressOrder(t *testing.T) {
	g := Graph{
		Switches: 6,
		Links:    []LinkSpec{{A: 0, B: 4}, {A: 0, B: 2}, {A: 2, B: 5}, {A: 4, B: 1}, {A: 4, B: 3}, {A: 5, B: 3}},
		Hosts:    []HostSpec{{3}, {0}, {5}, {3}, {1}},
	}
	sk, err := g.Resolve(def())
	if err != nil {
		t.Fatal(err)
	}
	// Preorder 0, 2, 5, 4, 1, 3: h1 | h2 | h4 | h0, h3.
	want := []int{3, 0, 1, 4, 2}
	for h, a := range want {
		if got := sk.Addr(h); got != a {
			t.Errorf("Addr(%d) = %d, want %d", h, got, a)
		}
		if got := sk.hostAt[a]; int(got) != h {
			t.Errorf("hostAt[%d] = %d, want %d", a, got, h)
		}
	}

	forest := &Skeleton{Switches: 5, Links: []Link{{A: 3, B: 1}, {A: 0, B: 4}}, Hosts: []HostSpec{{1}, {2}, {0}, {3}, {4}}}
	forest.buildCSR()
	forest.buildOrder()
	// Trees 0-4, then 1-3, then 2: h2, h4 | h0, h3 | h1.
	for h, a := range []int32{2, 4, 0, 3, 1} {
		if forest.addr[h] != a {
			t.Errorf("forest: host %d has address %d, want %d", h, forest.addr[h], a)
		}
	}
}
