package topology

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// LinkDown is the newWeight sentinel for ApplyLinkChange: the link is
// removed from routing (its weight becomes effectively infinite) while
// the compiled adjacency stays intact, so a later ApplyLinkChange with
// a finite weight brings it back.
const LinkDown = time.Duration(-1)

// ApplyLinkChange updates link li's routing metric to newWeight (or
// takes the link down, see LinkDown) and incrementally repairs the
// forwarding state, recomputing only the Dijkstra columns the change
// can affect. The result is byte-identical to a from-scratch
// RecomputeRoutes under the new weights — same intervals, same
// tie-breaks — for every worker count (pinned by the randomized
// property test in incremental_test.go). It returns the switches whose
// forwarding rows changed, in ascending order; callers repaint exactly
// those switch tables.
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
//  3. Full recompute of the surviving columns (worker pool, same
//     fillColumn as Compile) and an interval splice into each switch's
//     interned row, releasing and re-interning only rows whose content
//     moved.
//
// Errors leave the Compiled unchanged. Graphs with route overrides are
// rejected: overrides are painted destructively at Compile and cannot
// be replayed over recomputed columns.
func (c *Compiled) ApplyLinkChange(li int, newWeight time.Duration) (changed []int, err error) {
	if c.hasOverrides {
		return nil, fmt.Errorf("topology: ApplyLinkChange on a graph with route overrides")
	}
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

	// Certificate 1: bridges. (A down bridge cannot exist in a valid
	// compiled state — it would strand a switch from some host — so the
	// fast path only ever sees finite-to-finite changes.)
	c.ensureBridges()
	if c.bridge[li] && ow != downWt {
		if nw == downWt {
			return nil, fmt.Errorf("topology: taking link %d down disconnects the graph (bridge)", li)
		}
		c.wt[li] = nw
		return nil, nil
	}

	// Certificate 2: per-column endpoint probes.
	c.ensureDests()
	a, b := c.Links[li].A, c.Links[li].B
	var affected []int32 // indices into destSws, ascending
	if nw > ow {
		// Weight increase (including down): a column moves only if a
		// chosen hop at an endpoint is the link itself.
		fa, fb := packHop(li, 0), packHop(li, 1)
		for di := range c.destSws {
			h := int(c.destFirst[di])
			if c.packedAt(a, h) == fa || c.packedAt(b, h) == fb {
				affected = append(affected, int32(di))
			}
		}
	} else {
		// Weight decrease (including bringing a down link up): a column
		// moves only if the new edge beats or ties a current endpoint
		// distance. Two SSSP runs under the old weights give
		// dist_d(a), dist_d(b) for every destination at once.
		sc := newSSSP(c.Switches)
		da := make([]time.Duration, c.Switches)
		copy(da, sc.run(c, a))
		db := sc.run(c, b)
		for di, d := range c.destSws {
			dda, ddb := da[d], db[d]
			if dda == maxDist || ddb == maxDist ||
				nw+ddb <= dda || nw+dda <= ddb {
				affected = append(affected, int32(di))
			}
		}
	}

	c.wt[li] = nw
	if len(affected) == 0 {
		return nil, nil
	}

	// Certificate 3: recompute the affected columns under the new
	// weights — each column independent, fanned over the compile worker
	// pool — then splice.
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cols := make([][]int32, len(affected))
	colBad := make([]int32, len(affected))
	scratch := sync.Pool{New: func() any { return newSSSP(c.Switches) }}
	forEachParallel(workers, len(affected), func(i int) {
		sc := scratch.Get().(*sssp)
		cols[i] = make([]int32, c.Switches)
		colBad[i] = c.fillColumn(sc, int(c.destSws[affected[i]]), cols[i])
		scratch.Put(sc)
	})
	for i, bad := range colBad {
		if bad >= 0 {
			c.wt[li] = ow // roll back: forwarding state is untouched
			return nil, fmt.Errorf("topology: link %d change disconnects switch %d from hosts on switch %d",
				li, bad, c.destSws[affected[i]])
		}
	}
	return c.splice(affected, cols), nil
}

// splice overlays the recomputed columns onto every switch's forwarding
// row (or dense cells) and returns the ascending list of switches whose
// row content changed. Serial in switch order, so pool row ids — and
// the returned list — are deterministic.
func (c *Compiled) splice(affected []int32, cols [][]int32) []int {
	nh := len(c.Hosts)
	// Overlay: maximal host intervals attached to an affected
	// destination, each carrying its column index.
	type ovl struct {
		h0, h1 int32
		ci     int32
	}
	amap := make(map[int32]int32, len(affected))
	for ci, di := range affected {
		amap[c.destSws[di]] = int32(ci)
	}
	var overlay []ovl
	for h := 0; h < nh; {
		d := int32(c.Hosts[h].Switch)
		ci, ok := amap[d]
		if !ok {
			h++
			continue
		}
		h1 := h + 1
		for h1 < nh && int32(c.Hosts[h1].Switch) == d {
			h1++
		}
		overlay = append(overlay, ovl{int32(h), int32(h1), ci})
		h = h1
	}

	var changed []int
	if c.next != nil {
		for s := 0; s < c.Switches; s++ {
			row := c.next[s*nh : (s+1)*nh]
			moved := false
			for _, o := range overlay {
				p := cols[o.ci][s]
				hop := local
				if p >= 0 {
					hop = unpackHop(p)
				}
				for h := o.h0; h < o.h1; h++ {
					if row[h] != hop {
						row[h] = hop
						moved = true
					}
				}
			}
			if moved {
				changed = append(changed, s)
			}
		}
		return changed
	}

	var ends, slots []int32 // scratch row
	for s := 0; s < c.Switches; s++ {
		// Quick probe: every host of one destination shares its cell
		// value, so one cell per overlay interval decides whether the
		// row moves at all. Most rows don't. Row and overlay are both
		// sorted by host, so the probe is one merge walk over the two.
		oldRow := c.rowOf[s]
		oldEnds, oldSlots := c.pool.ends[oldRow], c.pool.slots[oldRow]
		adj := c.adjHop[c.adjOff[s]:c.adjOff[s+1]]
		moved := false
		ri := 0
		for _, o := range overlay {
			for oldEnds[ri] <= o.h0 {
				ri++
			}
			p := hopLocal
			if sl := oldSlots[ri]; sl >= 0 {
				p = adj[sl]
			}
			if p != cols[o.ci][s] {
				moved = true
				break
			}
		}
		if !moved {
			continue
		}
		// Rebuild the row: old intervals with overlay values painted
		// over, adjacent equal slots merged — the same canonical maximal
		// form the batch merge in computeRoutes emits, which is what
		// keeps the splice byte-identical to a full recompile.
		ends, slots = ends[:0], slots[:0]
		emit := func(end, slot int32) {
			if n := len(slots); n > 0 && slots[n-1] == slot {
				ends[n-1] = end
			} else {
				ends = append(ends, end)
				slots = append(slots, slot)
			}
		}
		oi, vi := 0, 0
		for pos := int32(0); pos < int32(nh); {
			for oldEnds[oi] <= pos {
				oi++
			}
			for vi < len(overlay) && overlay[vi].h1 <= pos {
				vi++
			}
			segEnd := oldEnds[oi]
			var slot int32
			if vi < len(overlay) && overlay[vi].h0 <= pos {
				if overlay[vi].h1 < segEnd {
					segEnd = overlay[vi].h1
				}
				slot = c.slotOf(s, cols[overlay[vi].ci][s])
			} else {
				if vi < len(overlay) && overlay[vi].h0 < segEnd {
					segEnd = overlay[vi].h0
				}
				slot = oldSlots[oi]
			}
			emit(segEnd, slot)
			pos = segEnd
		}
		id := c.pool.intern(ends, slots)
		c.pool.release(oldRow)
		c.rowOf[s] = id
		changed = append(changed, s)
	}
	return changed
}

// RecomputeRoutes rebuilds the forwarding state from scratch under the
// current weights (including down links) with the same compiler Compile
// uses. It is the reference ApplyLinkChange is pinned against and the
// baseline BenchmarkIncrementalRecompile compares with. On error
// (disconnection) the forwarding state is unusable.
func (c *Compiled) RecomputeRoutes() error {
	if c.hasOverrides {
		return fmt.Errorf("topology: RecomputeRoutes on a graph with route overrides")
	}
	c.next, c.rowOf, c.pool = nil, nil, nil
	rb, err := c.computeRoutes()
	if err != nil {
		return err
	}
	if rb != nil {
		rb.freeze(c)
	}
	return nil
}

// ensureDests builds the distinct-destination cache: every switch that
// bears hosts, in first-host order, with one representative host each.
// (All hosts on one switch share their forwarding column, so one host
// per destination is enough for every probe.)
func (c *Compiled) ensureDests() {
	if c.destSws != nil {
		return
	}
	seen := make([]bool, c.Switches)
	for h, hs := range c.Hosts {
		if !seen[hs.Switch] {
			seen[hs.Switch] = true
			c.destSws = append(c.destSws, int32(hs.Switch))
			c.destFirst = append(c.destFirst, int32(h))
		}
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
