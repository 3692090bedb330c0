package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/topology"
)

// checkRoutes asserts that every switch of the running Sim forwards
// every host the way ref's NextHop says. Packets name host h by its ID,
// Addr(h)+1; its access port by h+1.
func checkRoutes(t *testing.T, tag string, sm *Sim, ref *topology.Compiled) {
	t.Helper()
	for s := 0; s < ref.Switches; s++ {
		for h := 0; h < ref.NumHosts(); h++ {
			got := sm.switches[s].Route(ref.Addr(h) + 1)
			if got == nil {
				t.Fatalf("%s: switch %d has no route to host %d", tag, s, h+1)
			}
			hop, isLocal := ref.NextHop(s, h)
			if isLocal {
				// Each host's ports are built in pairs, up then down.
				if want := sm.ar.ports[2*h+1]; got != want {
					t.Fatalf("%s: switch %d sends its own host %d out %s, want sw%d->h%d", tag, s, h+1, portName(sm, got), s, h+1)
				}
			} else if want := sm.trunks[hop.Link][hop.Dir]; got != want {
				t.Fatalf("%s: switch %d sends host %d out %s, want %s", tag, s, h+1, portName(sm, got), portName(sm, want))
			}
		}
	}
}

// portName names a port of sm for a failure message: a port keeps no
// name, so it is looked up among the trunks and the access ports.
func portName(sm *Sim, pt *link.Port) string {
	for li, pair := range sm.trunks {
		for dir, tp := range pair {
			if tp == pt {
				l := sm.res.Topo.Links[li]
				return trunkName([2]int{l.A, l.B}[dir], [2]int{l.B, l.A}[dir])
			}
		}
	}
	if i := slices.Index(sm.ar.ports, pt); i >= 0 && i < 2*sm.res.Topo.NumHosts() {
		return fmt.Sprintf("access port %d of host %d", i%2, i/2+1)
	}
	return "an unknown port"
}

// TestSwitchTablesFollowLinkEvents steps a Sim past each link event and
// checks every (switch, host) forwarding decision against a from-scratch
// route compile under the weights in force — on a ring small enough for
// dense switch tables, a ring whose switches hold rows, and a scale-free
// graph where switches share the compiled topology's interned rows;
// serial and on two shards.
func TestSwitchTablesFollowLinkEvents(t *testing.T) {
	ringEvents := []LinkEvent{
		{T: 2 * time.Second, Link: 0, Down: true},
		{T: 4 * time.Second, Link: 3, Bandwidth: 10_000},
		{T: 6 * time.Second, Link: 0, Bandwidth: 25_000},
		{T: 8 * time.Second, Link: 3, Bandwidth: DefaultTrunkBandwidth},
	}
	conns := func(n int) []ConnSpec {
		return []ConnSpec{
			{SrcHost: 0, DstHost: n / 2, Start: 0},
			{SrcHost: n - 1, DstHost: 1, Start: 100 * time.Millisecond},
		}
	}
	ring8, ring80, ba := ring(8), ring(80), topology.BarabasiAlbert(150, 2, 5)
	cases := map[string]Config{
		"ring-dense": {Topology: &ring8, Conns: conns(8), Events: ringEvents},
		"ring-rows":  {Topology: &ring80, Conns: conns(80), Events: ringEvents},
		"ba-shared-rows": {Topology: &ba, Conns: conns(150), Events: []LinkEvent{
			{T: 2 * time.Second, Link: 40, Bandwidth: 5_000},
			{T: 4 * time.Second, Link: 7, Down: true},
			{T: 6 * time.Second, Link: 40, Bandwidth: 400_000},
			{T: 8 * time.Second, Link: 7, Bandwidth: 20_000},
		}},
	}
	for name, cfg := range cases {
		cfg.TrunkDelay = 10 * time.Millisecond
		cfg.Buffer = DefaultBuffer
		cfg.Warmup = time.Second
		cfg.Duration = 10 * time.Second
		for _, shards := range []int{1, 2} {
			cfg.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				sm, err := BuildE(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := sm.res.Topo.Clone()
				checkRoutes(t, "at build", sm, ref)
				for i, ev := range cfg.Events {
					sm.RunUntil(ev.T - time.Millisecond)
					checkRoutes(t, fmt.Sprintf("just before event %d", i), sm, ref)

					l := ref.Links[ev.Link]
					w := topology.LinkDown
					if !ev.Down {
						w = l.Delay + link.TxTime(sm.cfg.DataSize, ev.Bandwidth)
					}
					if _, err := ref.ApplyLinkChange(ev.Link, w); err != nil {
						t.Fatal(err)
					}
					if err := ref.RecomputeRoutes(); err != nil {
						t.Fatal(err)
					}
					sm.RunUntil(ev.T + time.Millisecond)
					checkRoutes(t, fmt.Sprintf("after event %d", i), sm, ref)
				}
				sm.Finish()
				checkRoutes(t, "at finish", sm, ref)
			})
		}
	}
}

// TestWiringCostIgnoresRouteRuns guards the O(1) route install: building
// a scale-free network — one link event included — costs objects and,
// net of the route compile itself, bytes in proportion to its switches,
// links and connections, however many forwarding intervals its tables
// hold. (Copying rows into switches, or capturing an event's tables
// interval by interval, costs 16-24 bytes per route run — here several
// times the bound.)
func TestWiringCostIgnoresRouteRuns(t *testing.T) {
	g := topology.BarabasiAlbert(1024, 2, 11)
	cfg := Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     DefaultBuffer,
		Warmup:     time.Second,
		Duration:   5 * time.Second,
		Events:     []LinkEvent{{T: 2 * time.Second, Link: len(g.Links) - 1, Bandwidth: 10_000}},
		// Unmeasured: run-length trace containers are not wiring.
		MeasureTrunks: []int{},
		MeasureConns:  []int{},
	}
	for k := 0; k < 200; k++ {
		cfg.Conns = append(cfg.Conns, ConnSpec{SrcHost: (37 * k) % 1024, DstHost: (37*k + 500) % 1024, Start: -1})
	}
	var topo *topology.Compiled
	allocs, wiringBytes := math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ { // least of three: the collector's own objects come and go
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := cfg.CompileTopology(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		sm, err := BuildE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m2)
		topo = sm.res.Topo
		allocs = min(allocs, float64(m2.Mallocs-m1.Mallocs))
		wiringBytes = min(wiringBytes, float64(m2.TotalAlloc-m1.TotalAlloc)-float64(m1.TotalAlloc-m0.TotalAlloc))
	}

	elements := float64(topo.Switches + len(topo.Links) + len(cfg.Conns))
	runs := float64(topo.RouteRuns())
	t.Logf("BuildE: %.0f allocations, %.0f bytes beyond the route compile; %.0f switches+links+conns (%.1f allocations, %.0f bytes each); %.0f route runs",
		allocs, wiringBytes, elements, allocs/elements, wiringBytes/elements, runs)
	if runs < 50*elements {
		t.Fatalf("graph too small to tell: %.0f route runs vs %.0f elements", runs, elements)
	}
	if allocs > 40*elements {
		t.Errorf("BuildE made %.0f allocations, over 40 per switch/link/conn (%.0f): wiring cost is following the %.0f route runs",
			allocs, elements, runs)
	}
	if wiringBytes > 4096*elements {
		t.Errorf("BuildE allocated %.0f bytes beyond its route compile, over 4 KB per switch/link/conn (%.0f): forwarding rows are being copied (%.0f route runs)",
			wiringBytes, elements, runs)
	}
}

// TestWiringBytesPerConnAreLocal: what a connection costs to wire does
// not grow with the number of connections in the run. 2000 one-hop
// connections on chain:256, unmeasured, cost at most 2.5 KB each,
// switches and ports included (the two endpoints and their hosts' table
// slots are about 1 KB of it). Host tables indexed by global connection
// id cost every host 16 bytes × the highest id it terminates: 15 KB per
// connection here, 60 KB at chain:1024 with 10⁴.
func TestWiringBytesPerConnAreLocal(t *testing.T) {
	g := topology.Chain(256)
	cfg := Config{
		Topology:      &g,
		TrunkDelay:    10 * time.Millisecond,
		Buffer:        DefaultBuffer,
		Warmup:        time.Second,
		Duration:      5 * time.Second,
		MeasureTrunks: []int{},
		MeasureConns:  []int{},
	}
	for k := 0; k < 2000; k++ {
		a := (k * 97) % 255
		src, dst := a, a+1
		if k%2 == 1 {
			src, dst = dst, src
		}
		cfg.Conns = append(cfg.Conns, ConnSpec{SrcHost: src, DstHost: dst, Start: -1})
	}
	perConn := math.Inf(1)
	for i := 0; i < 3; i++ { // least of three: the collector's own objects come and go
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := BuildE(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		perConn = min(perConn, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(cfg.Conns)))
	}
	t.Logf("BuildE allocated %.0f bytes per connection", perConn)
	if perConn > 2560 {
		t.Errorf("BuildE allocated %.0f bytes per connection, over 2.5 KB: wiring is paying for the other %d connections", perConn, len(cfg.Conns)-1)
	}
}
