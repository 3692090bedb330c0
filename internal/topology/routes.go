package topology

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// colBatchCells bounds the transient memory of one route-compilation
// batch: the distinct-destination Dijkstra columns held live at once
// never exceed about this many int32 cells (32 MiB at the default). A
// variable so tests can force multi-batch compiles on small graphs.
var colBatchCells = 1 << 23

// routeBuilder accumulates per-switch forwarding runs across host
// batches. It exists only between computeRoutes and freeze.
type routeBuilder struct {
	// runs[s] is switch s's interval list so far: entry {end, hop}
	// covers hosts [previous end, end).
	runs [][]runEntry
}

type runEntry struct {
	end int32
	hop int32
}

// paint overrides host h's hop at switch s, splitting the covering run.
func (rb *routeBuilder) paint(s, h int, hop int32) {
	rs := rb.runs[s]
	start := int32(0)
	for i := range rs {
		if rs[i].end <= int32(h) {
			start = rs[i].end
			continue
		}
		// rs[i] covers h: split into [start,h) old, [h,h+1) new, [h+1,end) old.
		if rs[i].hop == hop {
			return
		}
		repl := make([]runEntry, 0, 3)
		if int32(h) > start {
			repl = append(repl, runEntry{int32(h), rs[i].hop})
		}
		repl = append(repl, runEntry{int32(h) + 1, hop})
		if rs[i].end > int32(h)+1 {
			repl = append(repl, runEntry{rs[i].end, rs[i].hop})
		}
		rb.runs[s] = append(rs[:i], append(repl, rs[i+1:]...)...)
		return
	}
}

// freeze interns the accumulated runs into the Compiled's row pool and
// releases the accumulator. Hops are converted from packed global link
// directions to per-switch adjacency slots on the way in — the switch-
// relative form under which identical forwarding shapes deduplicate.
// The loop is serial in switch order, so row ids are deterministic
// regardless of how many workers computed the columns.
func (rb *routeBuilder) freeze(c *Compiled) {
	c.pool = newRowPool()
	c.rowOf = make([]int32, c.Switches)
	var ends, slots []int32
	for s, rs := range rb.runs {
		ends, slots = ends[:0], slots[:0]
		for _, r := range rs {
			ends = append(ends, r.end)
			slots = append(slots, c.slotOf(s, r.hop))
		}
		c.rowOf[s] = c.pool.intern(ends, slots)
	}
	rb.runs = nil
}

// computeRoutes fills the forwarding state with Dijkstra shortest paths
// toward every host's switch. Work is batched over contiguous host
// ranges: each batch computes one packed next-hop column per distinct
// destination switch on a worker pool, then merges the columns — in
// host order, over disjoint switch ranges — into the run accumulator.
// Neither step's output depends on worker scheduling, so the routes are
// identical for every worker count.
//
// The caller applies overrides to the returned builder and then freezes
// it.
func (c *Compiled) computeRoutes() (*routeBuilder, error) {
	nh := len(c.Hosts)
	nsw := c.Switches
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	rb := &routeBuilder{runs: make([][]runEntry, nsw)}

	// Batch size: how many distinct destination columns fit the
	// transient budget (always at least one). A batch can never hold
	// more columns than there are distinct destination switches — not
	// just fewer than the switch or host count — so cap the budget by
	// the actual column count too: a graph whose hosts cluster on a
	// handful of switches stages a handful of columns, regardless of
	// how large the transient budget quotient is. (Follow-up to the
	// map-hint fix: the hint below and the column arena both scale
	// with this cap.)
	distinct := 0
	{
		seen := make([]bool, nsw)
		for _, hs := range c.Hosts {
			if !seen[hs.Switch] {
				seen[hs.Switch] = true
				distinct++
			}
		}
	}
	maxCols := colBatchCells / nsw
	if maxCols < 1 {
		maxCols = 1
	}
	if maxCols > distinct {
		maxCols = distinct
	}

	var (
		cols    [][]int32 // column arena, reused across batches
		colBad  []int32   // lowest unreachable switch per column, -1 if none
		scratch = sync.Pool{New: func() any { return newSSSP(nsw) }}
		colOf   = make(map[int]int, maxCols) // dest switch -> column, reused per batch
		hostCol []int32                      // host h of the batch -> column, as hostCol[h-lo]
	)

	for lo := 0; lo < nh; {
		// Grow the batch [lo,hi) while its distinct destination switches
		// fit the column budget. Consecutive hosts on one switch share a
		// column, so a batch always advances by at least one host.
		// The map is probed once per host, here; the checks and merges
		// below, which visit every (switch, host) cell, read hostCol.
		clear(colOf)
		hostCol = hostCol[:0]
		var dests []int32
		hi := lo
		for hi < nh {
			d := c.Hosts[hi].Switch
			ci, ok := colOf[d]
			if !ok {
				if len(dests) == maxCols {
					break
				}
				ci = len(dests)
				colOf[d] = ci
				dests = append(dests, int32(d))
			}
			hostCol = append(hostCol, int32(ci))
			hi++
		}

		for len(cols) < len(dests) {
			cols = append(cols, make([]int32, nsw))
			colBad = append(colBad, -1)
		}

		// Parallel Dijkstra: one packed hop column per destination.
		forEachParallel(workers, len(dests), func(i int) {
			sc := scratch.Get().(*sssp)
			colBad[i] = c.fillColumn(sc, int(dests[i]), cols[i])
			scratch.Put(sc)
		})
		for h := lo; h < hi; h++ {
			if bad := colBad[hostCol[h-lo]]; bad >= 0 {
				return nil, fmt.Errorf("topology: switch %d cannot reach host %d (switch %d): graph is disconnected",
					bad, h, c.Hosts[h].Switch)
			}
		}

		// Merge the batch into the run accumulator, in host order. Disjoint
		// switch ranges extend their runs independently; the result per
		// switch depends only on the columns and the host order, both
		// fixed before the fan-out.
		chunk := (nsw + workers*4 - 1) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
		nChunks := (nsw + chunk - 1) / chunk
		forEachParallel(workers, nChunks, func(ci int) {
			sLo, sHi := ci*chunk, (ci+1)*chunk
			if sHi > nsw {
				sHi = nsw
			}
			for s := sLo; s < sHi; s++ {
				rs := rb.runs[s]
				for h := lo; h < hi; h++ {
					p := cols[hostCol[h-lo]][s]
					if n := len(rs); n > 0 && rs[n-1].hop == p && rs[n-1].end == int32(h) {
						rs[n-1].end = int32(h) + 1
					} else {
						rs = append(rs, runEntry{int32(h) + 1, p})
					}
				}
				rb.runs[s] = rs
			}
		})
		lo = hi
	}
	return rb, nil
}

// fillColumn computes dest d's packed next-hop column: col[s] is the
// hop switch s uses toward d (hopLocal at d itself). It returns the
// lowest switch index that cannot reach d, or -1 when all can.
func (c *Compiled) fillColumn(sc *sssp, d int, col []int32) (bad int32) {
	sc.run(c, d, col)
	return int32(slices.Index(col, hopUnreachable))
}

const maxDist = time.Duration(1<<63 - 1)

// downWt is the in-place weight of a link taken down by
// ApplyLinkChange. Every route scan — relaxation, next-hop selection,
// the incremental updater's endpoint probes — skips such links
// outright, so a down link carries no routes while the CSR adjacency
// (and with it every interned row's slot numbering) stays untouched.
const downWt = maxDist

// sssp is one worker's single-source shortest-path scratch: a distance
// vector and a lazy-deletion binary heap. Distances out of Dijkstra
// with positive weights and strictly-improving relaxation are unique,
// so the heap's tie order — unlike the old O(n²) lowest-index sweep —
// cannot influence the result.
type sssp struct {
	dist []time.Duration
	heap []heapNode
}

type heapNode struct {
	d  time.Duration
	sw int32
}

func newSSSP(n int) *sssp {
	return &sssp{dist: make([]time.Duration, n)}
}

// run returns every switch's shortest distance to dst under the link
// weight metric (maxDist where there is no path) and fills col with the
// packed hop each switch takes toward it: hopLocal at dst, hopUnreachable
// where there is no path. The hop is chosen as the switch is relaxed, by
// repairDecrease's rule: a strictly cheaper offer displaces the
// incumbent, an equal one takes the lower hop. Every neighbour on a
// shortest path makes its offer when it settles, so the survivor is the
// lowest link index among the equal-cost hops — half-edges are in link
// order, so packed hops compare as links do.
func (sc *sssp) run(c *Compiled, dst int, col []int32) []time.Duration {
	dist := sc.dist
	for s := range dist {
		dist[s] = maxDist
		col[s] = hopUnreachable
	}
	dist[dst], col[dst] = 0, hopLocal
	h := append(sc.heap[:0], heapNode{0, int32(dst)})
	for len(h) > 0 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		// sift down
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].d < h[l].d {
				l = r
			}
			if h[l].d >= h[i].d {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		if top.d > dist[top.sw] { // stale entry (lazy deletion)
			continue
		}
		for i := c.adjOff[top.sw]; i < c.adjOff[top.sw+1]; i++ {
			v := c.adjSw[i]
			w := c.wt[c.adjHop[i]>>1]
			if w == downWt { // down links carry no routes
				continue
			}
			hop := c.adjHop[i] ^ 1 // the same link, seen from v
			if d := top.d + w; d < dist[v] {
				dist[v], col[v] = d, hop
				h = append(h, heapNode{d, v})
				// sift up
				j := len(h) - 1
				for j > 0 {
					p := (j - 1) / 2
					if h[p].d <= h[j].d {
						break
					}
					h[p], h[j] = h[j], h[p]
					j = p
				}
			} else if d == dist[v] && hop < col[v] {
				col[v] = hop
			}
		}
	}
	sc.heap = h[:0]
	return dist
}

// forEachParallel runs fn(i) for every i in [0,n) across at most
// `workers` goroutines pulling from a shared counter. fn must be safe
// for concurrent calls with distinct i. workers <= 1 (or n <= 1) runs
// inline.
func forEachParallel(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
