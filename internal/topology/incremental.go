package topology

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// LinkDown is the newWeight sentinel for ApplyLinkChange: the link is
// removed from routing (its weight becomes effectively infinite) while
// the compiled adjacency stays intact, so a later ApplyLinkChange with
// a finite weight brings it back.
const LinkDown = time.Duration(-1)

// ChangeTier names the cheapest certificate that settled an
// ApplyLinkChange call (see there).
type ChangeTier uint8

const (
	// TierNoOp: the weight did not change.
	TierNoOp ChangeTier = iota
	// TierBridge: the link is a bridge, no route can move.
	TierBridge
	// TierProbes: the endpoint probes ruled every column out.
	TierProbes
	// TierRepair: some columns were repaired or recomputed.
	TierRepair
)

func (t ChangeTier) String() string {
	return [...]string{"no-op", "bridge", "probes", "repair"}[t]
}

// ChangeStats says what one ApplyLinkChange call did. Every field is a
// count fixed by the graph, the routes and the change — never by timing
// or the worker count.
type ChangeStats struct {
	Tier ChangeTier
	// Probed is the number of destination columns the endpoint probes
	// tested, Affected how many they could not rule out; of those,
	// Repaired were repaired in place and Recomputed recomputed whole.
	Probed, Affected, Repaired, Recomputed int
	// Lookups is the number of row lookups the repairs spent (abandoned
	// ones included).
	Lookups int
	// CellsMoved is the number of (switch, host) forwarding decisions
	// that changed.
	CellsMoved int
}

// LastChange describes the most recent ApplyLinkChange call on c; after
// an error, the attempt that was rejected.
func (c *Compiled) LastChange() ChangeStats { return c.last }

// ApplyLinkChange updates link li's routing metric to newWeight (or
// takes the link down, see LinkDown) and incrementally repairs the
// forwarding state, touching only the part of each destination's
// shortest-path tree the change can move. The result is byte-identical
// to a from-scratch RecomputeRoutes under the new weights — same
// intervals, same tie-breaks — for every worker count (pinned by the
// randomized property test in incremental_test.go). It returns the
// switches whose forwarding rows changed, in ascending order; callers
// repaint exactly those switch tables. LastChange reports which tier
// fired and how much work it did.
//
// The updater is a Ramalingam–Reps-style delta propagation organized as
// a certificate hierarchy, cheapest first:
//
//  1. Bridge links. If removing li disconnects its endpoints, every
//     route crossing the cut uses li at any finite weight: distances
//     shift uniformly, no argmin or tie can move, no column is
//     affected. On chains and parking lots every trunk is a bridge, so
//     a weight change is O(1) after the one-time bridge sweep.
//  2. Per-column endpoint probes. For a weight increase, column d is
//     affected only if an endpoint's chosen hop toward d is li itself
//     (any other chosen tree avoids li, and alternatives only got
//     worse). For a decrease, column d is affected only if the new
//     weight beats or ties the current endpoint distances:
//     w' + dist_d(b) <= dist_d(a) or symmetrically — which needs just
//     two single-source Dijkstras from li's endpoints under the old
//     weights.
//  3. Per-column repair (repair.go, DESIGN.md §16). An increase can
//     only move the old next-hop subtree under the endpoint that
//     forwarded into li; a decrease propagates from the endpoint that
//     gains, through the switches that improve, and stops at those
//     that merely tie. Either way only the cells that move are computed
//     and only the rows that own one are re-interned. A column whose
//     repair would read more than Switches/repairBudgetDiv cells is
//     recomputed whole instead (worker pool, same fillColumn as
//     Compile) and merged into every row by one walk.
//
// Errors leave the Compiled unchanged.
func (c *Compiled) ApplyLinkChange(li int, newWeight time.Duration) (changed []int, err error) {
	c.last = ChangeStats{}
	if li < 0 || li >= len(c.Links) {
		return nil, fmt.Errorf("topology: ApplyLinkChange on unknown link %d", li)
	}
	var nw time.Duration
	switch {
	case newWeight == LinkDown:
		nw = downWt
	case newWeight <= 0:
		return nil, fmt.Errorf("topology: ApplyLinkChange weight %v on link %d not positive", newWeight, li)
	default:
		nw = newWeight
	}
	ow := c.wt[li]
	if nw == ow {
		return nil, nil
	}
	if finite(nw) > maxDist-1-(c.wtSum-finite(ow)) {
		return nil, fmt.Errorf("topology: ApplyLinkChange weight %v on link %d takes the sum of the link weights past %v: path costs would overflow", newWeight, li, maxDist-1)
	}

	// Certificate 1: bridges. (A down bridge cannot exist in a valid
	// compiled state — it would strand a switch from some host — so the
	// fast path only ever sees finite-to-finite changes.)
	c.ensureBridges()
	if c.bridge[li] && ow != downWt {
		c.last.Tier = TierBridge
		if nw == downWt {
			return nil, fmt.Errorf("topology: taking link %d down disconnects the graph (bridge)", li)
		}
		c.setWeight(li, nw)
		return nil, nil
	}

	// Certificate 2: per-column endpoint probes. Each affected column
	// remembers the endpoint its repair starts from.
	c.ensureDests()
	c.last.Tier = TierProbes
	c.last.Probed = len(c.destSws)
	a, b := int32(c.Links[li].A), int32(c.Links[li].B)
	ea := c.adjOff[a] + c.slotOf(int(a), packHop(li, 0)) // li's half-edge at a
	eb := c.adjOff[b] + c.slotOf(int(b), packHop(li, 1))
	type column struct {
		di   int32 // index into destSws
		from int32 // a or b; -1: no repair, recompute whole
	}
	var affected []column // ascending di
	var da, db []time.Duration
	if nw > ow {
		// Weight increase (including down): a column moves only if a
		// chosen hop at an endpoint is the link itself.
		for di, iv := range c.destIv {
			if c.edgeAt(int(a), iv.a0) == ea {
				affected = append(affected, column{int32(di), a})
			} else if c.edgeAt(int(b), iv.a0) == eb {
				affected = append(affected, column{int32(di), b})
			}
		}
	} else {
		// Weight decrease (including bringing a down link up): a column
		// moves only if the new edge beats or ties a current endpoint
		// distance. Two SSSP runs under the old weights give
		// dist_d(a), dist_d(b) for every destination at once.
		sc := newSSSP(c.Switches)
		toDests := func(from int32) []time.Duration { // by destination index
			nd, out := sc.run(c, int(from)), make([]time.Duration, len(c.destSws))
			for di, d := range c.destSws {
				out[di] = nd[d].d
			}
			return out
		}
		da, db = toDests(a), toDests(b)
		for di := range c.destSws {
			switch dda, ddb := da[di], db[di]; {
			case dda == maxDist || ddb == maxDist:
				affected = append(affected, column{int32(di), -1})
			case addDist(nw, ddb) <= dda:
				affected = append(affected, column{int32(di), a})
			case addDist(nw, dda) <= ddb:
				affected = append(affected, column{int32(di), b})
			}
		}
	}

	c.setWeight(li, nw)
	c.last.Affected = len(affected)
	if len(affected) == 0 {
		return nil, nil
	}
	c.last.Tier = TierRepair

	// Certificate 3: repair each affected column under the new weights,
	// or recompute it whole when the repair gives up. Columns are
	// independent — each result depends only on the old routes and the
	// change — so they fan out over the compile worker pool.
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type result struct {
		cells   []cell  // repaired: the decisions that move
		col     []int32 // recomputed whole: the new column
		bad     int32   // lowest switch the change strands, -1 if none
		lookups int
	}
	results := make([]result, len(affected))
	scratch := make([]*repairer, workers) // one per worker, made on first use
	forEachParallel(workers, len(affected), func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = newRepairer(c, li, ow)
		}
		r := scratch[w]
		res, col := &results[i], affected[i]
		res.bad = -1
		ok := false
		if col.from >= 0 {
			// e is li's half-edge at the endpoint the repair starts from.
			e, dFrom, dFar := ea, da, db
			if col.from == b {
				e, dFrom, dFar = eb, db, da
			}
			if nw > ow {
				res.bad, ok = r.repairIncrease(col.di, col.from, e)
			} else {
				ok = r.repairDecrease(col.di, col.from, e, dFrom[col.di], dFar[col.di])
			}
			res.lookups = c.repairBudget() - r.left
		}
		if ok {
			res.cells = slices.Clone(r.out)
			return
		}
		if r.sc == nil {
			r.sc = newSSSP(c.Switches)
		}
		res.col = make([]int32, c.Switches)
		res.bad = c.fillColumn(r.sc, int(c.destSws[col.di]), res.col)
	})
	var cells []cell
	var whole []int32 // destination indices of the columns in cols
	var cols [][]int32
	for i, res := range results {
		c.last.Lookups += res.lookups
		if res.bad >= 0 {
			c.setWeight(li, ow) // roll back: forwarding state is untouched
			return nil, fmt.Errorf("topology: link %d change disconnects switch %d from hosts on switch %d",
				li, res.bad, c.destSws[affected[i].di])
		}
		if res.col != nil {
			whole = append(whole, affected[i].di)
			cols = append(cols, res.col)
		} else {
			cells = append(cells, res.cells...)
		}
	}
	c.last.Repaired = len(affected) - len(whole)
	c.last.Recomputed = len(whole)
	changed, c.last.CellsMoved = c.splice(cells, whole, cols)
	return changed, nil
}

// span is one repainted stretch of a forwarding row: addresses [a0,a1)
// now leave through packed hop.
type span struct {
	addrIval
	hop int32
}

// splice writes the repaired cells and the recomputed columns cols (of
// destinations whole, ascending) into the forwarding rows and returns
// the ascending list of switches whose row content changed, with the
// number of (switch, host) decisions that moved. Serial in switch order,
// so pool row ids — and the returned list — are deterministic. A switch
// is visited only if it owns a cell or some column was recomputed whole;
// whole columns are compared against each row by one merge walk, never
// by a search per cell.
func (c *Compiled) splice(cells []cell, whole []int32, cols [][]int32) (changed []int, moved int) {
	slices.SortStableFunc(cells, func(x, y cell) int { return int(x.sw - y.sw) })
	// Overlay: the address intervals of the whole columns' destinations,
	// in address order, each carrying its column index.
	type ovl struct {
		addrIval
		k int32
	}
	overlay := make([]ovl, len(whole))
	for k, di := range whole {
		overlay[k] = ovl{c.destIv[di], int32(k)}
	}
	slices.SortFunc(overlay, func(x, y ovl) int { return int(x.a0 - y.a0) })

	nh := len(c.Hosts)
	var paint []span
	row := Row{W: c.w} // scratch
	ci := 0
	for s := 0; s < c.Switches; s++ {
		if len(overlay) == 0 {
			if ci == len(cells) {
				break
			}
			s = int(cells[ci].sw)
		}
		// A moved cell maps to the address interval of its destination.
		paint = paint[:0]
		for ; ci < len(cells) && int(cells[ci].sw) == s; ci++ {
			paint = append(paint, span{c.destIv[cells[ci].di], cells[ci].hop})
		}
		sparse := len(paint)
		// Every host of one destination shares its cell value, so one cell
		// per overlay interval decides whether it moves. Most don't. Row
		// and overlay are both sorted by address: one merge walk.
		oldRow := c.rowOf[s]
		old := c.Row(s)
		adj := c.adjHop[c.adjOff[s]:c.adjOff[s+1]]
		ri := 0
		for _, o := range overlay {
			for old.End(ri) <= o.a0 {
				ri++
			}
			p := hopLocal
			if sl := old.Slot(ri); sl >= 0 {
				p = adj[sl]
			}
			if np := cols[o.k][s]; np != p {
				paint = append(paint, span{o.addrIval, np})
			}
		}
		if len(paint) == 0 {
			continue
		}
		if sparse > 0 {
			slices.SortFunc(paint, func(x, y span) int { return int(x.a0 - y.a0) })
		}
		for _, sp := range paint {
			moved += int(sp.a1 - sp.a0)
		}
		changed = append(changed, s)
		// Rebuild the row: old intervals with the spans painted over,
		// adjacent equal slots merged — the same canonical maximal form
		// the batch merge in computeRoutes emits, which is what keeps the
		// splice byte-identical to a full recompile.
		row.Words = row.Words[:0]
		oi, vi := 0, 0
		for pos := int32(0); pos < int32(nh); {
			for old.End(oi) <= pos {
				oi++
			}
			for vi < len(paint) && paint[vi].a1 <= pos {
				vi++
			}
			segEnd := old.End(oi)
			var slot int32
			if vi < len(paint) && paint[vi].a0 <= pos {
				segEnd = min(segEnd, paint[vi].a1)
				slot = c.slotOf(s, paint[vi].hop)
			} else {
				if vi < len(paint) {
					segEnd = min(segEnd, paint[vi].a0)
				}
				slot = old.Slot(oi)
			}
			row = row.Append(segEnd, slot)
			pos = segEnd
		}
		id := c.pool.intern(row.Words)
		c.pool.release(oldRow)
		c.rowOf[s] = id
	}
	return changed, moved
}

// RecomputeRoutes rebuilds the forwarding state from scratch under the
// current weights (including down links) with the same compiler Compile
// uses. It is the reference ApplyLinkChange is pinned against and the
// baseline BenchmarkIncrementalRecompile compares with. On error
// (disconnection) the forwarding state is left as it was.
func (c *Compiled) RecomputeRoutes() error { return c.computeRoutes() }

// addrIval is the interval [a0,a1) of addresses.
type addrIval struct {
	a0, a1 int32
}

// ensureDests builds the destination cache: every switch that bears
// hosts, in first-host order, with the address interval its hosts hold
// (one switch's hosts have consecutive addresses). All hosts on one
// switch share their forwarding column, so the interval's first address
// stands for the destination in every probe.
func (c *Compiled) ensureDests() {
	if c.destSws != nil {
		return
	}
	nh := int32(len(c.Hosts))
	seen := make([]bool, c.Switches)
	for h, hs := range c.Hosts {
		if seen[hs.Switch] {
			continue
		}
		seen[hs.Switch] = true
		// A switch's first host holds its lowest address.
		a0, a1 := c.addr[h], c.addr[h]+1
		for a1 < nh && c.Hosts[c.hostAt[a1]].Switch == hs.Switch {
			a1++
		}
		c.destSws = append(c.destSws, int32(hs.Switch))
		c.destIv = append(c.destIv, addrIval{a0, a1})
	}
}

// ensureBridges computes the per-link bridge flags with an iterative
// Tarjan DFS over the static CSR (down links included — a full-graph
// bridge is a bridge of every subgraph that still contains it, so the
// flag stays sound when other links are down; the converse
// misclassification only costs a fall-through to the endpoint probes).
// Parallel links are handled by skipping the entering link id exactly
// once per frame.
func (c *Compiled) ensureBridges() {
	if c.bridge != nil {
		return
	}
	c.bridge = make([]bool, len(c.Links))
	n := c.Switches
	disc := make([]int32, n) // 0 = unvisited, else discovery time
	low := make([]int32, n)
	type frame struct {
		sw         int32
		parentLink int32 // link id of the tree edge into sw, -1 at roots
		ei         int32 // next half-edge index to scan
		skipped    bool  // parent link already skipped once (parallel edges)
	}
	var stack []frame
	timer := int32(0)
	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root], low[root] = timer, timer
		stack = append(stack[:0], frame{sw: int32(root), parentLink: -1, ei: c.adjOff[root]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < c.adjOff[f.sw+1] {
				i := f.ei
				f.ei++
				eli := c.adjHop[i] >> 1
				if eli == f.parentLink && !f.skipped {
					f.skipped = true
					continue
				}
				v := c.adjSw[i]
				if disc[v] == 0 {
					timer++
					disc[v], low[v] = timer, timer
					stack = append(stack, frame{sw: v, parentLink: eli, ei: c.adjOff[v]})
				} else if disc[v] < low[f.sw] {
					low[f.sw] = disc[v]
				}
				continue
			}
			// Frame done: fold into the parent.
			child := *f
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				break
			}
			p := &stack[len(stack)-1]
			if low[child.sw] < low[p.sw] {
				low[p.sw] = low[child.sw]
			}
			if low[child.sw] > disc[p.sw] {
				c.bridge[child.parentLink] = true
			}
		}
	}
}
