package topology

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// canonRow is one switch's forwarding row in canonical form: maximal
// address intervals with their packed hop (hopLocal for the switch's own
// hosts).
type canonRow struct {
	ends []int32
	hops []int32
}

// snapshot resolves every switch's forwarding row to canonical form.
func snapshot(c *Compiled) []canonRow {
	rows := make([]canonRow, c.Switches)
	for s := 0; s < c.Switches; s++ {
		ends, slots := decode(c.Row(s))
		r := &rows[s]
		r.ends = ends
		for _, sl := range slots {
			p := hopLocal
			if sl >= 0 {
				hop := c.SlotHop(s, int(sl))
				p = packHop(hop.Link, hop.Dir)
			}
			r.hops = append(r.hops, p)
		}
	}
	return rows
}

func rowsEqual(a, b canonRow) bool {
	if len(a.ends) != len(b.ends) {
		return false
	}
	for i := range a.ends {
		if a.ends[i] != b.ends[i] || a.hops[i] != b.hops[i] {
			return false
		}
	}
	return true
}

// checkSame requires byte-identical forwarding state: the same canonical
// rows everywhere, which is the same interval structure (the canonical
// form IS the stored row, modulo slot translation).
func checkSame(t *testing.T, tag string, got, want *Compiled) {
	t.Helper()
	gs, ws := snapshot(got), snapshot(want)
	for s := range gs {
		if !rowsEqual(gs[s], ws[s]) {
			t.Fatalf("%s: switch %d forwarding row diverged:\n got %v|%v\nwant %v|%v",
				tag, s, gs[s].ends, gs[s].hops, ws[s].ends, ws[s].hops)
		}
	}
	for li := range got.Links {
		if got.wt[li] != want.wt[li] {
			t.Fatalf("%s: link %d weight %v, want %v", tag, li, got.wt[li], want.wt[li])
		}
	}
}

// checkPool verifies the interning invariants after a mutation: each
// live row's refcount equals the number of switches naming it, and no
// two live rows hold identical content.
func checkPool(t *testing.T, tag string, c *Compiled) {
	t.Helper()
	refs := make(map[int32]int32)
	for _, id := range c.rowOf {
		refs[id]++
	}
	for id, n := range refs {
		if c.pool.refs[id] != n {
			t.Fatalf("%s: row %d refcount %d, %d switches reference it", tag, id, c.pool.refs[id], n)
		}
	}
	seen := make(map[uint64][]int32)
	for id, row := range c.pool.rows {
		id := int32(id)
		if c.pool.refs[id] <= 0 {
			continue
		}
		h := hashRow(row)
		for _, other := range seen[h] {
			if slices.Equal(row, c.pool.rows[other]) {
				t.Fatalf("%s: live rows %d and %d share content — interning failed", tag, id, other)
			}
		}
		seen[h] = append(seen[h], id)
	}
}

// ring returns n switches in a cycle, one host per switch: no bridges,
// and every chain a repair walks is up to n/2 long.
func ring(n int) Graph {
	g := Chain(n)
	g.Links = append(g.Links, LinkSpec{A: n - 1, B: 0})
	return g
}

// incrementalGraphs is the property-test corpus: the ISSUE-named
// shapes (chain, parking lot, BA, Waxman) plus host-placement
// variants that scatter and cluster hosts, a ring, doubled links, and
// switches whose hosts are not adjacent in host order.
func incrementalGraphs() map[string]Graph {
	scattered := BarabasiAlbert(80, 2, 11)
	scattered.Hosts = nil
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		scattered.Hosts = append(scattered.Hosts, HostSpec{Switch: rng.Intn(80)})
	}
	sparse := Waxman(120, 3)
	sparse.Hosts = []HostSpec{{7}, {7}, {40}, {71}, {71}, {101}}
	// Every fifth link of a BA graph doubled, the twin slower on every
	// other one: equal-cost and unequal parallel hops.
	parallel := BarabasiAlbert(48, 2, 5)
	for li := 0; li < 90; li += 5 {
		twin := parallel.Links[li]
		twin.Delay = time.Duration(li%2) * 20 * time.Millisecond
		parallel.Links = append(parallel.Links, twin)
	}
	// Three switches own two or three separate host intervals each.
	split := Waxman(60, 4)
	split.Hosts = []HostSpec{{3}, {17}, {3}, {3}, {42}, {17}, {8}, {42}, {3}, {55}, {17}}
	return map[string]Graph{
		"ring-30":      ring(30),
		"ba-parallel":  parallel,
		"waxman-split": split,
		"chain-24":     Chain(24),
		"parking-lot":  ParkingLot(6),
		"ba-64":        BarabasiAlbert(64, 2, 7),
		"ba-200":       BarabasiAlbert(200, 3, 42),
		"waxman-64":    Waxman(64, 7),
		"waxman-300":   Waxman(300, 99),
		"ba-scattered": scattered,
		"waxman-thin":  sparse,
	}
}

// mutateOnce applies one random link change to live (incremental) and,
// on success, mirrors it onto ref (when there is one) by direct weight
// poke plus full recompile. It returns the changed-switch list and whether the step
// applied (false: the change was rejected, state must be untouched).
func mutateOnce(t *testing.T, tag string, rng *rand.Rand, live, ref *Compiled) ([]int, bool) {
	t.Helper()
	li := rng.Intn(len(live.Links))
	cur := live.wt[li]
	var w time.Duration
	switch op := rng.Intn(6); {
	case op == 0: // take down
		w = LinkDown
	case op == 1 || cur == downWt: // restore / perturb from the spec weight
		base := live.Links[li].Delay + time.Duration(int64(live.dataSize)*8*int64(time.Second)/live.Links[li].Bandwidth)
		w = base + time.Duration(rng.Intn(3))*time.Millisecond
	case op == 2:
		w = cur / 3
	case op == 3:
		w = cur * 3
	case op == 4:
		w = cur + time.Duration(rng.Intn(20_000_000)) // sub-RTT nudge: tie territory
	default:
		w = cur - time.Duration(rng.Intn(int(cur/2)+1))
	}
	if w != LinkDown && w <= 0 {
		w = time.Millisecond
	}

	before := snapshot(live)
	changed, err := live.ApplyLinkChange(li, w)
	if err != nil {
		// Rejected (disconnection): live must be untouched.
		after := snapshot(live)
		for s := range before {
			if !rowsEqual(before[s], after[s]) {
				t.Fatalf("%s: failed ApplyLinkChange(%d) mutated switch %d", tag, li, s)
			}
		}
		if live.wt[li] != cur {
			t.Fatalf("%s: failed ApplyLinkChange(%d) left weight %v", tag, li, live.wt[li])
		}
		return nil, false
	}

	// The changed list must be exactly the rows that moved.
	after := snapshot(live)
	ci := 0
	for s := range before {
		moved := !rowsEqual(before[s], after[s])
		listed := ci < len(changed) && changed[ci] == s
		if listed {
			ci++
		}
		if moved != listed {
			t.Fatalf("%s: ApplyLinkChange(%d,%v) switch %d moved=%v listed=%v", tag, li, w, s, moved, listed)
		}
	}
	if ci != len(changed) {
		t.Fatalf("%s: changed list has stray entries %v", tag, changed[ci:])
	}

	if ref == nil {
		return changed, true
	}
	// Mirror onto the reference: poke the weight, recompile from scratch.
	if w == LinkDown {
		ref.wt[li] = downWt
	} else {
		ref.wt[li] = w
	}
	if err := ref.RecomputeRoutes(); err != nil {
		t.Fatalf("%s: reference recompile rejected a change the incremental path accepted: %v", tag, err)
	}
	return changed, true
}

// TestApplyLinkChangeMatchesRecompile is the pinned byte-identity
// property: a long random sequence of weight changes, downs, and
// restores maintained incrementally equals a from-scratch recompile
// after every single step, for several worker counts — and the naive
// dense reference every tenth.
func TestApplyLinkChangeMatchesRecompile(t *testing.T) { matchesRecompile(t) }

// The same property with every affected column forced down one tier-3
// path: recomputed whole (the repair may spend nothing), and repaired
// in place however far the change reaches.
func TestApplyLinkChangeMatchesRecompileAllWhole(t *testing.T) {
	forceRepairBudget = 0
	defer func() { forceRepairBudget = -1 }()
	matchesRecompile(t)
}

func TestApplyLinkChangeMatchesRecompileAllRepair(t *testing.T) {
	forceRepairBudget = 1 << 40
	defer func() { forceRepairBudget = -1 }()
	matchesRecompile(t)
}

// matchesRecompile drives one seeded stream of link changes per graph
// past two referees. "runs": after every step the repaired rows equal a
// from-scratch RecomputeRoutes byte for byte, a 3-worker twin did the
// same work, and the pool's interning invariants hold. "dense": every
// tenth step each (switch, host) answer equals refRoutes' dense table
// under the current weights — the reference that shares no code with the
// compiler or the repair.
func matchesRecompile(t *testing.T) {
	for name, g := range incrementalGraphs() {
		t.Run(name+"/runs", func(t *testing.T) {
			def := eqDefaults()
			live := mustCompile(t, g, def)
			ref := mustCompile(t, g, def)
			defW := eqDefaults()
			defW.Workers = 3
			liveW := mustCompile(t, g, defW)

			var total ChangeStats
			defer func() { t.Logf("%d columns repaired, %d recomputed whole", total.Repaired, total.Recomputed) }()
			rng := rand.New(rand.NewSource(int64(len(name)) * 1337))
			rngW := rand.New(rand.NewSource(int64(len(name)) * 1337))
			applied := 0
			for step := 0; step < 40; step++ {
				changed, ok := mutateOnce(t, name, rng, live, ref)
				// Same op stream on the 3-worker compile: identical
				// results and identical changed lists.
				changedW, okW := mutateOnce(t, name+"/w3", rngW, liveW, liveW.Clone())
				if ok != okW || len(changed) != len(changedW) {
					t.Fatalf("step %d: workers=3 diverged (ok %v/%v, changed %d/%d)",
						step, ok, okW, len(changed), len(changedW))
				}
				for i := range changed {
					if changed[i] != changedW[i] {
						t.Fatalf("step %d: workers=3 changed list diverged at %d", step, i)
					}
				}
				// What the call did is a property of the change, not of
				// the worker count.
				st := live.LastChange()
				if stW := liveW.LastChange(); st != stW {
					t.Fatalf("step %d: workers=3 did different work: %+v vs %+v", step, stW, st)
				}
				if forceRepairBudget > 0 && st.Recomputed != 0 {
					t.Fatalf("step %d: unlimited budget, yet %d columns recomputed whole", step, st.Recomputed)
				}
				total.Repaired += st.Repaired
				total.Recomputed += st.Recomputed
				if !ok {
					continue
				}
				applied++
				checkSame(t, name, live, ref)
				checkSame(t, name+"/w3", liveW, live)
				checkPool(t, name, live)
			}
			if applied == 0 {
				t.Fatalf("no link change applied in 40 steps — corpus too restrictive")
			}
		})
		t.Run(name+"/dense", func(t *testing.T) {
			live := mustCompile(t, g, eqDefaults())
			rng := rand.New(rand.NewSource(int64(len(name)) * 1337))
			for step := 0; step < 40; step++ {
				mutateOnce(t, name, rng, live, nil)
				if step%10 == 9 {
					checkAgainstRef(t, fmt.Sprintf("%s step %d", name, step), live, refTable(t, live))
				}
			}
		})
	}
}

// TestApplyLinkChangeBridgeFastPath pins the O(1) chain case: every
// chain link is a bridge, so a finite weight change moves no routes and
// reports no changed switches, while taking a bridge down is rejected.
func TestApplyLinkChangeBridgeFastPath(t *testing.T) {
	c := mustCompile(t, Chain(64), eqDefaults())
	want := snapshot(c)
	changed, err := c.ApplyLinkChange(31, 700*time.Millisecond)
	if err != nil || len(changed) != 0 {
		t.Fatalf("bridge weight change: changed=%v err=%v", changed, err)
	}
	if c.Weight(31) != 700*time.Millisecond {
		t.Fatalf("weight not updated: %v", c.Weight(31))
	}
	got := snapshot(c)
	for s := range want {
		if !rowsEqual(want[s], got[s]) {
			t.Fatalf("bridge weight change moved switch %d", s)
		}
	}
	if _, err := c.ApplyLinkChange(31, LinkDown); err == nil {
		t.Fatal("taking a bridge down must be rejected")
	}
	// And the state after the rejected down still matches a recompile.
	ref := c.Clone()
	if err := ref.RecomputeRoutes(); err != nil {
		t.Fatalf("recompile: %v", err)
	}
	checkSame(t, "post-reject", c, ref)
}

// TestApplyLinkChangeRejects pins the argument guards.
func TestApplyLinkChangeRejects(t *testing.T) {
	c := mustCompile(t, Chain(8), eqDefaults())
	if _, err := c.ApplyLinkChange(-1, time.Second); err == nil {
		t.Fatal("negative link accepted")
	}
	if _, err := c.ApplyLinkChange(len(c.Links), time.Second); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if _, err := c.ApplyLinkChange(0, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// heldRow is a row as Compiled.Row handed it out, with a private copy
// taken at that moment.
type heldRow struct {
	row  Row
	want []uint32
}

func holdRows(c *Compiled) []heldRow {
	held := make([]heldRow, c.Switches)
	for s := range held {
		row := c.Row(s)
		held[s] = heldRow{row, slices.Clone(row.Words)}
	}
	return held
}

func (h heldRow) intact() bool { return slices.Equal(h.row.Words, h.want) }

// TestCloneIsolation: mutations on a clone never leak into the
// original — and rows handed out by Row, at any point, stay
// bit-identical through every later link change on either side. Rows
// are shared between a Compiled and its clones and held by reference
// outside the package (running switches, scheduled link events), so a
// pool that ever rewrote a dead row's memory would corrupt a holder.
// Reader goroutines scan the held rows the whole time: under -race any
// write to a handed-out row is reported even where the content happens
// to survive.
func TestCloneIsolation(t *testing.T) {
	base := mustCompile(t, BarabasiAlbert(120, 2, 3), eqDefaults())
	want := snapshot(base)
	cl := base.Clone()

	var mu sync.Mutex // guards held; the rows themselves are read unlocked
	held := holdRows(base)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				rows := held
				mu.Unlock()
				for s, h := range rows {
					if !h.intact() {
						t.Errorf("row handed out for switch %d changed under a reader", s)
						return
					}
				}
			}
		}()
	}
	hold := func(c *Compiled) {
		more := holdRows(c)
		mu.Lock()
		held = append(slices.Clone(held), more...)
		mu.Unlock()
	}

	// Down / restore / re-rate on the clone: rows die, their ids are
	// recycled, and restores recreate earlier content, which the pool
	// must find again by hash or store in fresh memory.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 15; i++ {
		mutateOnce(t, "clone", rng, cl, cl.Clone())
		if i%5 == 4 {
			hold(cl)
		}
	}
	got := snapshot(base)
	for s := range want {
		if !rowsEqual(want[s], got[s]) {
			t.Fatalf("clone mutation leaked into original at switch %d", s)
		}
	}
	checkPool(t, "original", base)
	checkPool(t, "clone", cl)

	// Now the original moves too, under the clone's feet and the
	// holders'.
	wantClone := snapshot(cl)
	for i := 0; i < 15; i++ {
		mutateOnce(t, "original", rng, base, base.Clone())
		if i%5 == 4 {
			hold(base)
		}
	}
	gotClone := snapshot(cl)
	for s := range wantClone {
		if !rowsEqual(wantClone[s], gotClone[s]) {
			t.Fatalf("original's mutation leaked into the clone at switch %d", s)
		}
	}
	checkPool(t, "original", base)
	checkPool(t, "clone", cl)

	close(stop)
	readers.Wait()
	for i, h := range held {
		if !h.intact() {
			t.Fatalf("held row %d (switch %d) changed after it was handed out", i, i%base.Switches)
		}
	}
}

// TestLeafLinkChangeIsLocal pins the cost of the benchmark's link
// events: re-rate, down and restore of the last link of BA(2048,2) —
// the newest switch's second attachment. Of the 1200–1850 columns the
// probes select, all but the two whose destination is the leaf or its
// other attachment (1651 and 119 switches route to those through the
// link: far over budget) are repaired in place, at a cost tied to what
// actually moves.
func TestLeafLinkChangeIsLocal(t *testing.T) {
	def := Defaults{Bandwidth: 50_000, Delay: 2 * time.Millisecond, Buffer: 20, DataSize: 500}
	c, err := BarabasiAlbert(2048, 2, 1).Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	ref := c.Clone()
	li := len(c.Links) - 1
	weight := func(bw int64) time.Duration {
		return def.Delay + time.Duration(int64(def.DataSize)*8*int64(time.Second)/bw)
	}
	for _, w := range []time.Duration{weight(25_000), LinkDown, weight(100_000)} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		changed, err := c.ApplyLinkChange(li, w)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		st := c.LastChange()
		// Rows are immutable, so every changed switch gets fresh slices;
		// the rest is the updater's own working memory (the parent held
		// one 8 KB column per affected destination, 8-15 MB a call).
		alloc := int(m1.TotalAlloc - m0.TotalAlloc)
		for _, s := range changed {
			alloc -= 4 * c.Row(s).Len()
		}
		t.Logf("weight %v: %d switches changed, %+v, %d KB allocated besides the new rows", w, len(changed), st, alloc>>10)
		if st.Tier != TierRepair || st.Affected < 1000 || st.Recomputed > 2 {
			t.Errorf("weight %v: want all but two affected columns repaired in place, got %+v", w, st)
		}
		if st.Lookups > 64*st.CellsMoved {
			t.Errorf("weight %v: %d row lookups for %d cells moved, want at most 64 per cell", w, st.Lookups, st.CellsMoved)
		}
		if alloc > 2<<20 {
			t.Errorf("weight %v: %d bytes allocated besides the new rows, want at most 2 MB", w, alloc)
		}
		if ref.wt[li] = w; w == LinkDown {
			ref.wt[li] = downWt
		}
		if err := ref.RecomputeRoutes(); err != nil {
			t.Fatal(err)
		}
		checkSame(t, "leaf", c, ref)
	}
}

// TestDisconnectingChangeIsRejected pins the tier-3 rejection: on a ring
// with one link already down no other link is a bridge of the full
// graph, so a second down gets past tier 1 and must be caught by the
// column repair (or the whole-column fallback) — with the error text
// recorded from 42ba9e2 (the link, the lowest stranded switch, the
// destination of the first affected column) and nothing changed.
func TestDisconnectingChangeIsRejected(t *testing.T) {
	defer func() { forceRepairBudget = -1 }()
	sparse := ring(12)
	sparse.Hosts = []HostSpec{{5}, {9}, {5}, {2}}
	for _, tc := range []struct {
		name  string
		g     Graph
		wants [3]string // downs of links 8, 11, 0 after link 3 went down
	}{
		{"all-hosts", ring(12), [3]string{
			"topology: link 8 change disconnects switch 4 from hosts on switch 0",
			"topology: link 11 change disconnects switch 4 from hosts on switch 0",
			"topology: link 0 change disconnects switch 1 from hosts on switch 0",
		}},
		{"split-hosts", sparse, [3]string{
			"topology: link 8 change disconnects switch 0 from hosts on switch 5",
			"topology: link 11 change disconnects switch 0 from hosts on switch 5",
			"topology: link 0 change disconnects switch 1 from hosts on switch 5",
		}},
	} {
		for _, budget := range []int{-1, 0, 1 << 40} {
			forceRepairBudget = budget
			c := mustCompile(t, tc.g, eqDefaults())
			if _, err := c.ApplyLinkChange(3, LinkDown); err != nil {
				t.Fatalf("%s: first down: %v", tc.name, err)
			}
			before, weights := snapshot(c), slices.Clone(c.wt)
			for i, li := range []int{8, 11, 0} {
				_, err := c.ApplyLinkChange(li, LinkDown)
				if err == nil || err.Error() != tc.wants[i] {
					t.Errorf("%s budget %d: down link %d: got %v, want %q", tc.name, budget, li, err, tc.wants[i])
				}
				if st := c.LastChange(); st.Tier != TierRepair || st.CellsMoved != 0 {
					t.Errorf("%s budget %d: down link %d: stats %+v, want a tier-3 attempt that moved nothing", tc.name, budget, li, st)
				}
			}
			after := snapshot(c)
			for s := range before {
				if !rowsEqual(before[s], after[s]) {
					t.Errorf("%s budget %d: rejected changes moved switch %d", tc.name, budget, s)
				}
			}
			if !slices.Equal(weights, c.wt) {
				t.Errorf("%s budget %d: rejected changes left weights %v, want %v", tc.name, budget, c.wt, weights)
			}
		}
	}
}
