package node

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"tahoedyn/internal/link"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/topology"
)

// testPorts returns n distinct ports that are never transmitted on.
func testPorts(n int, prefix string) []*link.Port {
	eng := sim.New()
	dst := NewHost(eng, 0, 0)
	ports := make([]*link.Port, n)
	for i := range ports {
		ports[i] = link.NewPort(eng, link.Config{Name: fmt.Sprintf("%s%d", prefix, i), Bandwidth: 1e6}, dst)
	}
	return ports
}

// packRow packs intervals into a row as the topology stores them, at
// the narrowest width their slots allow, without merging neighbours.
func packRow(ends, slots []int32) topology.Row {
	var w uint
	for _, sl := range slots {
		w = max(w, uint(bits.Len32(uint32(sl+2))))
	}
	r := topology.Row{Words: make([]uint32, len(ends)), W: w}
	for i := range ends {
		r.Words[i] = uint32(ends[i])<<w | uint32(slots[i]+2)
	}
	return r
}

// randomRow draws a compiled-style row over nh hosts: ascending interval
// ends (the last equal to nh) and, per interval, a slot below deg or
// slotLocal. The shape selects the corner cases by name.
func randomRow(rng *rand.Rand, nh, deg int, shape string) (ends, slots []int32) {
	draw := func(prev int32) int32 {
		for {
			s := int32(rng.Intn(deg+1)) - 1 // -1 is slotLocal
			if s != prev {
				return s
			}
		}
	}
	switch shape {
	case "single-run":
		return []int32{int32(nh)}, []int32{int32(rng.Intn(deg))}
	case "all-local":
		return []int32{int32(nh)}, []int32{slotLocal}
	}
	prev := int32(-9)
	for h := 0; h < nh; {
		h += 1 + rng.Intn(1+nh/8)
		if h > nh {
			h = nh
		}
		s := draw(prev)
		ends, slots, prev = append(ends, int32(h)), append(slots, s), s
	}
	if shape == "local-edges" {
		// First and last interval local. (If that leaves two local
		// neighbors the row is merely non-canonical, which lookup must
		// tolerate.)
		slots[0], slots[len(slots)-1] = slotLocal, slotLocal
	}
	return ends, slots
}

// TestSwitchRowViewMatchesPaintedAndNaive is the run-mode property: a
// switch viewing a compiled row, a switch painted with AddRouteRange
// (ascending, or shuffled over garbage that must be overwritten), and a
// plain map answer Route identically for every destination, in range or
// not — in both table representations.
func TestSwitchRowViewMatchesPaintedAndNaive(t *testing.T) {
	defer func(old int) { denseRouteLimit = old }(denseRouteLimit)
	rng := rand.New(rand.NewSource(41))
	shapes := []string{"random", "random", "local-edges", "single-run", "all-local"}
	for trial := 0; trial < 300; trial++ {
		denseRouteLimit = []int{64, 64, 0, 1 << 20}[trial%4]
		shape := shapes[trial%len(shapes)]
		nh := 1 + rng.Intn(300)
		deg := 1 + rng.Intn(6)
		ends, slots := randomRow(rng, nh, deg, shape)
		trunk := testPorts(deg, "t")
		access := testPorts(nh, "h") // access[h] serves host ID h+1, if local

		// Naive reference and the row view.
		naive := make(map[int]*link.Port)
		view := NewSwitch(1)
		view.SetPorts(trunk)
		type run struct {
			lo, hi int
			port   *link.Port
		}
		var runs []run
		start := 0
		for i, end := range ends {
			for h := start; h < int(end); h++ {
				if slots[i] == slotLocal {
					naive[h+1] = access[h]
					view.AddLocal(h+1, access[h])
					runs = append(runs, run{h + 1, h + 2, access[h]})
				} else {
					naive[h+1] = trunk[slots[i]]
				}
			}
			if slots[i] != slotLocal {
				runs = append(runs, run{start + 1, int(end) + 1, trunk[slots[i]]})
			}
			start = int(end)
		}
		view.SetRow(1, packRow(ends, slots))

		// Painted: every other trial in ascending order (the append path),
		// otherwise shuffled, in pieces, over stale routes.
		painted := NewSwitch(2)
		if trial%2 == 1 {
			for i := 0; i < 4; i++ {
				lo := 1 + rng.Intn(nh)
				painted.AddRouteRange(lo, lo+1+rng.Intn(nh+1-lo), trunk[rng.Intn(deg)])
			}
			var pieces []run
			for _, r := range runs {
				if mid := r.lo + rng.Intn(r.hi-r.lo); mid > r.lo {
					pieces = append(pieces, run{r.lo, mid, r.port}, run{mid, r.hi, r.port})
				} else {
					pieces = append(pieces, r)
				}
			}
			runs = pieces
			rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		}
		for _, r := range runs {
			painted.AddRouteRange(r.lo, r.hi, r.port)
		}

		probes := []int{-1 << 40, -1, 1 << 31, 1<<31 + 5, 1 << 40}
		for d := -3; d <= nh+5; d++ {
			probes = append(probes, d)
		}
		for _, d := range probes {
			want := naive[d]
			if got := view.Route(d); got != want {
				t.Fatalf("trial %d (%s, limit %d, nh %d): row view Route(%d) = %v, want %v\nends %v\nslots %v",
					trial, shape, denseRouteLimit, nh, d, got, want, ends, slots)
			}
			if got := painted.Route(d); got != want {
				t.Fatalf("trial %d (%s, limit %d, nh %d): painted Route(%d) = %v, want %v\nends %v\nslots %v",
					trial, shape, denseRouteLimit, nh, d, got, want, ends, slots)
			}
		}
	}
}

// TestSwitchRowReplace: SetRow replaces the whole table — a later row
// leaves nothing of an earlier one behind — and never writes the row it
// is given.
func TestSwitchRowReplace(t *testing.T) {
	trunk := testPorts(2, "t")
	for _, nh := range []int{10, 100} { // dense table, row view
		sw := NewSwitch(0)
		sw.SetPorts(trunk)
		first := [2][]int32{{int32(nh)}, {0}}
		second := [2][]int32{{int32(nh / 2), int32(nh)}, {1, 0}}
		firstRow, secondRow := packRow(first[0], first[1]), packRow(second[0], second[1])
		firstWords, secondWords := slices.Clone(firstRow.Words), slices.Clone(secondRow.Words)
		sw.SetRow(1, firstRow)
		sw.SetRow(1, secondRow)
		for d := 0; d <= nh+1; d++ {
			var want *link.Port
			switch {
			case d >= 1 && d <= nh/2:
				want = trunk[1]
			case d > nh/2 && d <= nh:
				want = trunk[0]
			}
			if got := sw.Route(d); got != want {
				t.Fatalf("nh %d: Route(%d) = %v after replacement, want %v", nh, d, got, want)
			}
		}
		if !slices.Equal(firstRow.Words, firstWords) || !slices.Equal(secondRow.Words, secondWords) {
			t.Fatalf("nh %d: SetRow wrote to a row it was given", nh)
		}
	}
}

// TestSwitchPaintOnSharedRowPanics: a row installed by SetRow belongs to
// whoever compiled it; painting into it would corrupt every other holder.
func TestSwitchPaintOnSharedRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRouteRange wrote into a shared row")
		}
	}()
	trunk := testPorts(1, "t")
	sw := NewSwitch(0)
	sw.SetPorts(trunk)
	sw.SetRow(1, packRow([]int32{100}, []int32{0}))
	sw.AddRoute(5, trunk[0])
}

// TestSwitchRowNoRoutePanics: run mode reports a missing route with the
// same message the dense table does.
func TestSwitchRowNoRoutePanics(t *testing.T) {
	trunk := testPorts(1, "t")
	view := NewSwitch(7)
	view.SetPorts(trunk)
	view.SetRow(1, packRow([]int32{50, 100}, []int32{0, slotLocal})) // hosts 51..100 local, none registered
	painted := NewSwitch(7)
	painted.AddRouteRange(70, 80, trunk[0])
	dense := NewSwitch(7)
	dense.AddRoute(3, trunk[0])
	for name, sw := range map[string]*Switch{"view": view, "painted": painted, "dense": dense} {
		for _, dst := range []int{60, 101, 0, -4} {
			p := &packet.Packet{Conn: 1, Dst: dst, Size: 500}
			want := fmt.Sprintf("switch 7: no route to host %d for %v", dst, p)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s Deliver(dst %d) panicked with %v, want %q", name, dst, got, want)
					}
				}()
				sw.Deliver(p)
			}()
		}
	}
}

// TestAddRouteRangeAscendingAppends: installing intervals in ascending
// order must append — not rescan and reallocate the row per call. 4096
// intervals cost a handful of slice doublings, not thousands of
// allocations.
func TestAddRouteRangeAscendingAppends(t *testing.T) {
	ports := testPorts(8, "p")
	const n = 4096
	allocs := testing.AllocsPerRun(5, func() {
		sw := NewSwitch(0)
		for r := 0; r < n; r++ {
			// A gap every 16th interval: the no-route filler appends too.
			sw.AddRouteRange(100+3*r+r%16/15, 100+3*r+3, ports[r%len(ports)])
		}
		if sw.Route(100+3*(n-1)+2) != ports[(n-1)%len(ports)] {
			t.Fatal("last interval not installed")
		}
	})
	if allocs > 64 {
		t.Fatalf("%d ascending AddRouteRange calls made %.0f allocations; want O(log n)", n, allocs)
	}
}

// TestPrivateRowRepacksAsPortsGrow builds a private row whose ports
// outgrow its slot width mid-build — two ports fit two bits, forty need
// six — in ascending and in out-of-order paints, and checks every
// destination against a map after each one.
func TestPrivateRowRepacksAsPortsGrow(t *testing.T) {
	defer func(old int) { denseRouteLimit = old }(denseRouteLimit)
	denseRouteLimit = 0
	rng := rand.New(rand.NewSource(29))
	ports := testPorts(40, "p")
	sw := NewSwitch(3)
	naive := make(map[int]*link.Port)
	widths := map[uint]bool{}
	check := func(step int) {
		t.Helper()
		for d := -2; d < 1000; d++ {
			if got, want := sw.Route(d), naive[d]; got != want {
				t.Fatalf("step %d (width %d): Route(%d) = %v, want %v", step, sw.row.W, d, got, want)
			}
		}
	}
	for step := 0; step < 200; step++ {
		// Early steps draw from the first ports only; the pool widens as
		// the build goes on.
		pt := ports[rng.Intn(min(len(ports), 2+step/4))]
		lo := rng.Intn(990)
		if step%3 == 0 {
			lo = 5 * step // ascending: the append path
		}
		hi := lo + 1 + rng.Intn(10)
		sw.AddRouteRange(lo, hi, pt)
		for d := lo; d < hi; d++ {
			naive[d] = pt
		}
		widths[sw.row.W] = true
		check(step)
	}
	if want := uint(bits.Len(uint(len(sw.ports) + 1))); sw.row.W != want || !widths[2] {
		t.Fatalf("%d ports: width %d, want %d, having passed through 2 (widths seen %v)", len(sw.ports), sw.row.W, want, widths)
	}
}
