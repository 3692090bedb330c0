package node

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"tahoedyn/internal/link"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// scanRow is the naive row lookup: walk the intervals from the first.
func scanRow(base int, ends, slots []int32, ports []*link.Port, local map[int]*link.Port, dst int) *link.Port {
	start := base
	for i, end := range ends {
		if dst >= start && dst < base+int(end) {
			switch {
			case slots[i] >= 0:
				return ports[slots[i]]
			case slots[i] == slotLocal:
				return local[dst]
			}
			return nil
		}
		start = base + int(end)
	}
	return nil
}

// skewed draws destinations the way traffic does: most from a few
// favourites (so the hot-route table hits), the rest anywhere, a little
// out of range.
func skewed(rng *rand.Rand, favourites []int, nh int) int {
	if rng.Intn(4) != 0 {
		return favourites[rng.Intn(len(favourites))]
	}
	return rng.Intn(nh+6) - 2
}

// TestSwitchHotRoutesMatchLinearScan: the hot-route table is invisible.
// Over random rows and skewed lookup sequences, with the row swapped by
// SetRow in mid-sequence, every lookup equals a linear scan of the row
// the switch holds at that moment — a stale slot from the previous row
// would show as a wrong port.
func TestSwitchHotRoutesMatchLinearScan(t *testing.T) {
	defer func(old int) { denseRouteLimit = old }(denseRouteLimit)
	denseRouteLimit = 0
	rng := rand.New(rand.NewSource(17))
	shapes := []string{"random", "random", "local-edges", "single-run", "all-local"}
	for trial := 0; trial < 200; trial++ {
		nh := 1 + rng.Intn(400)
		deg := 1 + rng.Intn(40)
		trunk := testPorts(deg, "t")
		sw := NewSwitch(trial)
		sw.SetPorts(trunk)
		// Every third host is registered as local; a local interval over
		// the others resolves to no port, hit or miss.
		local := make(map[int]*link.Port)
		for h, pt := range testPorts((nh+2)/3, "h") {
			local[3*h+1] = pt
			sw.AddLocal(3*h+1, pt)
		}
		favourites := make([]int, 1+rng.Intn(3*deg))
		for i := range favourites {
			favourites[i] = 1 + rng.Intn(nh)
		}
		for swap := 0; swap < 4; swap++ {
			ends, slots := randomRow(rng, nh, deg, shapes[rng.Intn(len(shapes))])
			sw.SetRow(1, packRow(ends, slots))
			want := max(4, min(hotMax, ceilPow2(hotPerPort*deg)))
			if len(ends) <= hotMinRuns {
				want = 0 // short enough to search directly
			}
			if len(sw.hot) != want {
				t.Fatalf("trial %d: %d ports and %d intervals got a %d-entry hot-route table, want %d", trial, deg, len(ends), len(sw.hot), want)
			}
			for i := 0; i < 300; i++ {
				d := skewed(rng, favourites, nh)
				if got, want := sw.Route(d), scanRow(1, ends, slots, trunk, local, d); got != want {
					t.Fatalf("trial %d swap %d lookup %d: Route(%d) = %v, linear scan says %v\nends %v\nslots %v",
						trial, swap, i, d, got, want, ends, slots)
				}
			}
		}
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// TestSwitchHotRoutesSurvivePaint is the same property for a privately
// painted row: AddRouteRange in mid-sequence — over cached destinations,
// with ports the switch has not seen before — against a plain array
// painted alongside.
func TestSwitchHotRoutesSurvivePaint(t *testing.T) {
	defer func(old int) { denseRouteLimit = old }(denseRouteLimit)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		denseRouteLimit = []int{0, 64}[trial%2] // row from the start, or migrated on the way
		nh := 80 + rng.Intn(300)
		ports := testPorts(1+rng.Intn(30), "p")
		naive := make([]*link.Port, nh+8)
		sw := NewSwitch(trial)
		favourites := make([]int, 1+rng.Intn(40))
		for i := range favourites {
			favourites[i] = rng.Intn(nh)
		}
		for round := 0; round < 12; round++ {
			lo := rng.Intn(nh)
			hi := lo + 1 + rng.Intn(nh-lo)
			pt := ports[rng.Intn(len(ports))]
			sw.AddRouteRange(lo, hi, pt)
			for d := lo; d < hi; d++ {
				naive[d] = pt
			}
			if got, want := sw.hot != nil, sw.row.Len() > hotMinRuns; got != want {
				t.Fatalf("trial %d round %d: %d intervals, hot-route table present = %v", trial, round, sw.row.Len(), got)
			}
			for i := 0; i < 100; i++ {
				d := skewed(rng, favourites, nh)
				var want *link.Port
				if d >= 0 {
					want = naive[d]
				}
				if got := sw.Route(d); got != want {
					t.Fatalf("trial %d round %d: Route(%d) = %v after painting [%d,%d), want %v", trial, round, d, got, lo, hi, want)
				}
			}
		}
	}
}

// TestDenseSwitchHasNoHotRoutes: the paper's scenarios never leave the
// dense table, and must not pay for a mechanism they cannot use.
func TestDenseSwitchHasNoHotRoutes(t *testing.T) {
	trunk := testPorts(2, "t")
	painted := NewSwitch(0)
	painted.AddRouteRange(0, denseRouteLimit, trunk[0])
	view := NewSwitch(1)
	view.SetPorts(trunk)
	view.SetRow(1, packRow([]int32{10, 20}, []int32{0, 1}))
	for name, sw := range map[string]*Switch{"painted": painted, "view": view} {
		if sw.Route(5) == nil {
			t.Fatalf("%s: no route installed", name)
		}
		if sw.row.Words != nil || sw.hot != nil {
			t.Fatalf("%s: a dense-mode switch holds a row (%v) or a hot-route table (%d entries)", name, sw.row.Words != nil, len(sw.hot))
		}
	}
	// Nor does a row of a few intervals, which a search settles inside one
	// cache line of memory every switch with that row shares; a long row
	// gets a table, and a switch going back to a short or dense-sized row
	// drops it.
	long := [2][]int32{make([]int32, 2*hotMinRuns), make([]int32, 2*hotMinRuns)}
	for i := range long[0] {
		long[0][i], long[1][i] = int32(denseRouteLimit+10*(i+1)), int32(i%2)
	}
	for i, row := range [][2][]int32{{{int32(denseRouteLimit) + 50}, {0}}, long, {{int32(denseRouteLimit), int32(denseRouteLimit) + 9}, {1, 0}}, long, {{10}, {1}}} {
		view.SetRow(1, packRow(row[0], row[1]))
		if got, want := view.hot != nil, len(row[0]) > hotMinRuns; got != want {
			t.Fatalf("row %d, %d intervals: hot-route table present = %v, want %v", i, len(row[0]), got, want)
		}
	}
	if view.row.Words != nil || view.Route(3) != trunk[1] {
		t.Fatal("the last row did not put the switch back in dense mode")
	}
}

// TestHostEndpointTableIsHostSized: connection ids are global, a host's
// table is not. 1000 sparse ids up to 10⁶ cost the host at most 64 bytes
// each (a slice indexed by id paid 16 MB), every one is found, an
// unknown id is nil, and the attach-time checks read as before.
func TestHostEndpointTableIsHostSized(t *testing.T) {
	eng := sim.New()
	h := NewHost(eng, 9, 0)
	rng := rand.New(rand.NewSource(5))
	eps := make(map[int]*recordingHandler)
	for len(eps) < 1000 {
		conn := rng.Intn(1_000_000)
		if len(eps) < 4 {
			conn = []int{0, 999_999, 1 << 40, 1<<62 + 3}[len(eps)] // the ends of the range, and beyond it
		}
		if eps[conn] == nil {
			eps[conn] = &recordingHandler{eng: eng}
			h.Attach(conn, eps[conn])
		}
	}
	if bytes := len(h.eps) * int(unsafe.Sizeof(endpointSlot{})); bytes > 64*len(eps) {
		t.Fatalf("%d endpoints hold %d bytes of table, want at most 64 each", len(eps), bytes)
	}
	for conn, ep := range eps {
		if got := h.endpoint(conn); got != ep {
			t.Fatalf("endpoint(%d) = %v, want the handler attached", conn, got)
		}
	}
	for _, conn := range []int{-1, -1 << 40, 1_000_001, 1 << 50} {
		if got := h.endpoint(conn); got != nil {
			t.Fatalf("endpoint(%d) = %v for a connection never attached", conn, got)
		}
	}
	if NewHost(eng, 1, 0).endpoint(3) != nil {
		t.Fatal("a host with nothing attached found an endpoint")
	}

	// Delivery goes through the same probe.
	for conn, ep := range eps {
		h.Deliver(&packet.Packet{Conn: conn})
		if len(ep.pkts) != 1 {
			t.Fatalf("conn %d: handler saw %d packets, want 1", conn, len(ep.pkts))
		}
	}

	expectPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Fatalf("panicked with %v, want %q", got, want)
			}
		}()
		fn()
	}
	expectPanic("host 9: endpoint for conn 999999 already attached", func() { h.Attach(999_999, eps[0]) })
	expectPanic("host 9: negative conn id -2", func() { h.Attach(-2, eps[0]) })
	// An unknown connection is reported when the packet reaches dispatch:
	// at once without a processing delay, after it otherwise.
	p := &packet.Packet{Conn: 77, Dst: 9, Size: 500}
	expectPanic(fmt.Sprintf("host 9: no endpoint for conn 77 (%v)", p), func() { h.Deliver(p) })
	slow := NewHost(eng, 9, 100*time.Microsecond)
	slow.Attach(1, eps[0])
	expectPanic(fmt.Sprintf("host 9: no endpoint for conn 77 (%v)", p), func() {
		slow.Deliver(p)
		eng.Run()
	})
}
