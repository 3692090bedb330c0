package topology

import "time"

// repairBudgetDiv bounds the work ApplyLinkChange spends repairing one
// destination column in place: at most Switches/repairBudgetDiv row
// lookups (reads of one switch's forwarding decision out of its interned
// row — the unit every step of a repair is charged in). A column that
// would need more is recomputed whole by fillColumn, which costs about
// one Dijkstra over all Switches; an eighth of that leaves the repair
// well ahead where it finishes and wastes little where it gives up (hub
// links, rings, the columns of a link's own endpoints).
const repairBudgetDiv = 8

// forceRepairBudget, when non-negative, replaces the per-column budget.
// Only the equivalence tests set it: 0 sends every column down the
// whole-column path, a huge value keeps every column on the repair.
var forceRepairBudget = -1

func (c *Compiled) repairBudget() int {
	if forceRepairBudget >= 0 {
		return forceRepairBudget
	}
	return c.Switches / repairBudgetDiv
}

// cell is one moved forwarding decision: switch sw now leaves toward
// every host of destination destSws[di] through packed hop.
type cell struct {
	sw, di, hop int32
}

// repairer is one worker's scratch for repairing destination columns
// after link li went from weight ow to c.wt[li]. Everything it knows
// about a switch lives in one swState, valid for the current column only
// (gen stamps it), so starting a column costs O(1).
type repairer struct {
	c  *Compiled
	li int32
	ow time.Duration

	gen  int32
	st   []swState
	addr int32   // first address of the column's destination
	left int     // row lookups the column may still spend
	over bool    // the budget ran out: abandon the column
	set  []int32 // increase: the subtree; decrease: the improved switches
	ties []int32 // decrease: switches that only gained an equal-cost hop
	q    radixQ
	walk []int32 // oldDist's chain
	out  []cell
	sc   *sssp // whole-column fallback scratch, made on first use
}

type swState struct {
	gen   int32
	flags uint8
	edge  int32         // hasEdge: forwarding decision before the change (CSR index)
	hop   int32         // decrease: lowest packed hop achieving nd (inSet) or tying dist (tied)
	dist  time.Duration // hasDist: distance to the destination before the change
	nd    time.Duration // inSet: distance after the change (tentative until popped)
}

const (
	hasEdge = 1 << iota
	hasDist
	inSet
	tied
)

func newRepairer(c *Compiled, li int, ow time.Duration) *repairer {
	return &repairer{c: c, li: int32(li), ow: ow, st: make([]swState, c.Switches)}
}

func (r *repairer) at(s int32) *swState {
	st := &r.st[s]
	if st.gen != r.gen {
		*st = swState{gen: r.gen}
	}
	return st
}

// begin opens the column of destination destSws[di].
func (r *repairer) begin(di int32) {
	r.gen++
	r.addr = r.c.destIv[di].a0
	r.left = r.c.repairBudget()
	r.over = false
	r.set, r.ties, r.out = r.set[:0], r.ties[:0], r.out[:0]
	r.q.reset()
	d := r.at(r.c.destSws[di])
	d.flags, d.edge, d.dist = hasEdge|hasDist, edgeLocal, 0
}

// oldEdge returns s's forwarding decision toward the destination before
// the change, reading its row at most once per column. When the budget
// is spent it sets over and returns edgeLocal.
func (r *repairer) oldEdge(s int32) int32 {
	st := r.at(s)
	if st.flags&hasEdge == 0 {
		if r.left == 0 {
			r.over = true
			return edgeLocal
		}
		r.left--
		st.edge = r.c.edgeAt(int(s), r.addr)
		st.flags |= hasEdge
	}
	return st.edge
}

// oldDist returns s's distance to the destination before the change. It
// is not stored anywhere: it is the sum of the old weights down s's old
// next-hop chain, walked until the destination or a switch whose
// distance this column already knows, and memoised for every switch on
// the way. When the budget is spent it sets over.
func (r *repairer) oldDist(s int32) time.Duration {
	c := r.c
	walk := r.walk[:0]
	u := s
	for r.at(u).flags&hasDist == 0 {
		e := r.oldEdge(u)
		if r.over {
			return maxDist
		}
		walk = append(walk, u)
		u = c.adjSw[e]
	}
	d := r.st[u].dist
	for i := len(walk) - 1; i >= 0; i-- {
		st := &r.st[walk[i]]
		l := c.adjHop[st.edge] >> 1
		if l == r.li {
			d += r.ow
		} else {
			d += c.wt[l]
		}
		st.dist = d
		st.flags |= hasDist
	}
	r.walk = walk[:0]
	return d
}

// repairIncrease repairs one column after li's weight rose (or li went
// down). x is the endpoint whose route to the destination entered li,
// through half-edge ex.
//
// The switches that can move are exactly x's subtree T in the old
// next-hop tree. A switch outside T keeps its distance — its old chain
// avoids li — and its old hop stays a cheapest one (it leads outside T,
// where nothing changed) while every other hop kept its cost or got
// dearer, so under "lowest link index among the cheapest" it keeps the
// hop too. Inside T the new distances are a Dijkstra over T seeded from
// the unchanged neighbours around it, and each hop is re-chosen by
// fillColumn's rule.
//
// bad is the lowest switch the change strands from the destination, or
// -1; ok is false when the budget ran out.
func (r *repairer) repairIncrease(di, x, ex int32) (bad int32, ok bool) {
	c := r.c
	r.begin(di)
	sx := r.at(x)
	sx.flags, sx.edge, sx.nd = hasEdge|inSet, ex, maxDist
	r.set = append(r.set, x)

	// T: a neighbour belongs when its old hop is the reverse of the
	// half-edge that leads to it from a member.
	for n := 0; n < len(r.set); n++ {
		u := r.set[n]
		for i := c.adjOff[u]; i < c.adjOff[u+1]; i++ {
			v := c.adjSw[i]
			sv := r.at(v) // from here on every neighbour of T is stamped
			if i == ex || sv.flags&inSet != 0 {
				continue // li's far end routes away from x
			}
			e := r.oldEdge(v)
			if r.over {
				return -1, false
			}
			if e >= 0 && c.adjHop[e] == c.adjHop[i]^1 {
				sv.flags |= inSet
				sv.nd = maxDist
				r.set = append(r.set, v)
			}
		}
	}

	// Seed every member from its neighbours outside T, then settle T
	// (seeds before the first pop, then popped key + weight: monotone).
	for _, u := range r.set {
		best := maxDist
		for i := c.adjOff[u]; i < c.adjOff[u+1]; i++ {
			w := c.wt[c.adjHop[i]>>1]
			v := c.adjSw[i]
			if w == downWt || r.st[v].flags&inSet != 0 {
				continue
			}
			dv := r.oldDist(v)
			if r.over {
				return -1, false
			}
			best = min(best, addDist(w, dv))
		}
		if best < maxDist {
			r.st[u].nd = best
			r.q.push(best, u)
		}
	}
	for !r.q.empty() {
		top := r.q.pop()
		if top.d > r.st[top.sw].nd {
			continue // stale entry
		}
		for i := c.adjOff[top.sw]; i < c.adjOff[top.sw+1]; i++ {
			w := c.wt[c.adjHop[i]>>1]
			sv := &r.st[c.adjSw[i]]
			if w == downWt || sv.gen != r.gen || sv.flags&inSet == 0 {
				continue
			}
			if d := addDist(top.d, w); d < sv.nd {
				sv.nd = d
				r.q.push(d, c.adjSw[i])
			}
		}
	}

	// Re-choose each member's hop: CSR order, strictly cheaper displaces.
	bad = -1
	for _, u := range r.set {
		if r.st[u].nd == maxDist {
			if bad < 0 || u < bad {
				bad = u
			}
			continue
		}
		best, bestCost := edgeLocal, maxDist
		for i := c.adjOff[u]; i < c.adjOff[u+1]; i++ {
			w := c.wt[c.adjHop[i]>>1]
			if w == downWt {
				continue
			}
			sv := &r.st[c.adjSw[i]] // seeded or settled above: current
			dv := sv.dist
			if sv.flags&inSet != 0 {
				if dv = sv.nd; dv == maxDist {
					continue
				}
			}
			if cost := addDist(w, dv); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best != r.st[u].edge {
			r.out = append(r.out, cell{u, di, c.adjHop[best]})
		}
	}
	return bad, true
}

// repairDecrease repairs one column after li's weight fell (or li came
// back up). g is the endpoint the probe found li now serves at least as
// well as its old route, through half-edge eg; dg and dFar are the old
// distances of g and of li's other end.
//
// Distances only fall, and every improved route runs through g, so a
// Dijkstra from g over tentative distances finds them all: a switch the
// wave reaches cheaper than its old distance improves and carries the
// wave on; one it reaches at exactly its old distance gains an
// equal-cost hop — it takes it if its link index is lower — and, its
// distance unchanged, has nothing to tell its neighbours; one it reaches
// dearer is untouched. An improved switch's cheapest hops all lead to
// improved switches (an unimproved neighbour still costs at least the
// old distance), each of which is settled before it, so the lowest hop
// seen at the final distance is fillColumn's choice.
func (r *repairer) repairDecrease(di, g, eg int32, dg, dFar time.Duration) (ok bool) {
	c := r.c
	r.begin(di)
	// The probe's SSSPs already measured both ends of li: two walks saved.
	r.know(g, dg)
	r.know(c.adjSw[eg], dFar)
	if r.over {
		return false
	}
	r.reach(g, addDist(c.wt[r.li], dFar), c.adjHop[eg])
	for !r.q.empty() && !r.over { // one seed above, then popped key + weight
		top := r.q.pop()
		if top.d > r.st[top.sw].nd {
			continue // stale entry
		}
		for i := c.adjOff[top.sw]; i < c.adjOff[top.sw+1]; i++ {
			if w := c.wt[c.adjHop[i]>>1]; w != downWt {
				r.reach(c.adjSw[i], top.d+w, c.adjHop[i]^1)
			}
		}
	}
	if r.over {
		return false
	}
	for _, v := range r.set {
		if st := &r.st[v]; st.hop != c.adjHop[st.edge] {
			r.out = append(r.out, cell{v, di, st.hop})
		}
	}
	for _, v := range r.ties {
		if st := &r.st[v]; st.flags&inSet == 0 && st.hop != c.adjHop[st.edge] {
			r.out = append(r.out, cell{v, di, st.hop})
		}
	}
	return true
}

// know records s's old distance from outside knowledge. A switch whose
// old distance is known always has its old edge too — oldDist learns
// both together — so know looks the edge up.
func (r *repairer) know(s int32, d time.Duration) {
	r.oldEdge(s)
	st := &r.st[s]
	st.flags |= hasDist
	st.dist = d
}

// reach offers switch v the distance d through packed hop.
func (r *repairer) reach(v int32, d time.Duration, hop int32) {
	st := r.at(v)
	if st.flags&inSet != 0 {
		switch {
		case d < st.nd:
			st.nd, st.hop = d, hop
			r.q.push(d, v)
		case d == st.nd && hop < st.hop:
			st.hop = hop
		}
		return
	}
	old := r.oldDist(v)
	switch {
	case r.over || d > old:
	case d < old:
		st.flags |= inSet
		st.nd, st.hop = d, hop
		r.set = append(r.set, v)
		r.q.push(d, v)
	case st.flags&tied == 0:
		st.flags |= tied
		st.hop = min(hop, r.c.adjHop[st.edge])
		r.ties = append(r.ties, v)
	case hop < st.hop:
		st.hop = hop
	}
}
