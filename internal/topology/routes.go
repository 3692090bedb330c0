package topology

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// colBatchCells bounds the transient memory of one route-compilation
// batch: the distinct-destination Dijkstra columns held live at once
// never exceed about this many int32 cells (8 MiB at the default; the
// runs a tile keeps between batches cost less than the columns a larger
// batch holds, DESIGN.md §13). A variable so tests can force
// multi-batch compiles on small graphs.
var colBatchCells = 1 << 21

// mergeTile is how many switches one step of the column merge covers:
// each column line is loaded once per batch, 16 lines per page walk,
// and what a tile keeps warm (last hops, run counts, the line of the
// scratch being filled) fits the first-level cache. Measured: DESIGN.md
// §13.
const mergeTile = 256

// routeBuilder holds every switch's finished forwarding row until
// freeze interns it.
type routeBuilder struct {
	// rows[s] is switch s's row as the pool keeps it (Row words at the
	// topology's width), hops already converted to adjacency slots — the
	// switch-relative form under which identical forwarding shapes
	// deduplicate.
	rows  [][]uint32
	hash  []uint64     // hashRow of each row
	stats CompileStats // completed by freeze
}

// freeze interns the rows into the Compiled's row pool, which keeps the
// builder's memory for every row it has not seen before. The loop is
// serial in switch order, so row ids are deterministic regardless of how
// many workers computed the columns.
func (rb *routeBuilder) freeze(c *Compiled) {
	c.pool = newRowPool()
	c.rowOf = make([]int32, c.Switches)
	for s, row := range rb.rows {
		c.rowOf[s] = c.pool.adopt(rb.hash[s], row)
	}
	rb.rows = nil
	c.stats = rb.stats
	c.stats.DistinctRows = c.pool.live()
	c.stats.RouteBytes = c.RouteBytes()
}

// CompileStats says what a route compile did, in counts fixed by the
// graph and the weights, never by timing or the worker count: a Compiled
// is part of a run's Result, and equal runs compare equal. Whoever wants
// the wall time takes it around the call.
type CompileStats struct {
	// Columns is the number of Dijkstra runs, one per switch with
	// hosts, computed in Batches batches.
	Columns, Batches int
	// Pushes counts every run's queue insertions, StalePops the entries
	// popped after a cheaper one for the same switch.
	Pushes, StalePops int64
	// DistinctRows and RouteBytes are DistinctRows() and RouteBytes().
	DistinctRows, RouteBytes int
}

// CompileStats describes c's most recent Compile or RecomputeRoutes.
func (c *Compiled) CompileStats() CompileStats { return c.stats }

// computeRoutes fills the forwarding state with Dijkstra shortest paths
// toward every host's switch. Work is batched over contiguous address
// ranges: each batch computes one packed next-hop column per destination
// switch on a worker pool, then merges the columns — in address order,
// over disjoint switch ranges — into the runs each tile of switches
// keeps, and after the last batch into each switch's row.
// Neither step's output depends on worker scheduling, so the routes are
// identical for every worker count. On error the forwarding state is
// left as it was.
func (c *Compiled) computeRoutes() error {
	if err := c.syncArcs(); err != nil {
		return err
	}
	nh := len(c.Hosts)
	nsw := c.Switches
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	rb := &routeBuilder{rows: make([][]uint32, nsw), hash: make([]uint64, nsw)}
	last := make([]int32, nsw) // the hop of each switch's newest run
	for s := range last {
		last[s] = hopUnreachable // in no merged column: the first host starts a run
	}

	// The hosts of one switch hold consecutive addresses, so the
	// destination switches come in address order one interval each: the
	// columns of a batch are distinct, and there are as many columns in
	// all as switches with hosts.
	swAt := func(a int) int { return c.Hosts[c.hostAt[a]].Switch }
	distinct := 0
	for a := range nh {
		if a == 0 || swAt(a) != swAt(a-1) {
			distinct++
		}
	}
	// Batch size: how many destination columns fit the transient budget
	// (always at least one, never more than there are).
	maxCols := min(max(colBatchCells/nsw, 1), distinct)

	var (
		cols    [][]int32                // column arena, reused across batches
		colBad  []int32                  // lowest unreachable switch per column, -1 if none
		scratch = make([]*sssp, workers) // one per worker, made on first use
		dests   []int32                  // the batch's destination switches
		destAt  []int32                  // the first address of each
		ntiles  = (nsw + mergeTile - 1) / mergeTile
		tiles   = make([]*tileScratch, workers) // one per worker, made on first use
		kept    = make([][][]tileRun, ntiles)   // by tile: the runs of the batches before the last
		nRuns   = make([]int32, nsw)            // runs each switch has started so far
	)

	for lo := 0; lo < nh; {
		// The batch [lo,hi): the address intervals of up to maxCols
		// destination switches.
		dests, destAt = dests[:0], destAt[:0]
		hi := lo
		for hi < nh && len(dests) < maxCols {
			d := swAt(hi)
			dests, destAt = append(dests, int32(d)), append(destAt, int32(hi))
			for hi++; hi < nh && swAt(hi) == d; hi++ {
			}
		}
		rb.stats.Columns += len(dests)
		rb.stats.Batches++

		for len(cols) < len(dests) {
			cols = append(cols, make([]int32, nsw))
			colBad = append(colBad, -1)
		}

		// Parallel Dijkstra: one packed hop column per destination.
		forEachParallel(workers, len(dests), func(w, i int) {
			if scratch[w] == nil {
				scratch[w] = newSSSP(nsw)
			}
			colBad[i] = c.fillColumn(scratch[w], int(dests[i]), cols[i])
		})
		for i := range dests {
			if colBad[i] >= 0 {
				return c.disconnected()
			}
		}

		// Merge the batch, a tile of switches at a time, into the worker's
		// tile scratch. The tile keeps what a batch before the last found;
		// after the last, its switches' rows are made from all of it.
		// Disjoint tiles never meet; what a switch gets depends only on the
		// columns and the address order, both fixed before the fan-out.
		final := hi == nh
		forEachParallel(workers, ntiles, func(w, ti int) {
			if tiles[w] == nil {
				tiles[w] = new(tileScratch)
			}
			t := tiles[w]
			sLo := ti * mergeTile
			sHi := min(sLo+mergeTile, nsw)
			t.merge(cols[:len(dests)], destAt, sLo, last[sLo:sHi], nRuns[sLo:sHi])
			if final {
				rb.finish(c, sLo, nRuns[sLo:sHi], kept[ti], t.chunks[:t.used])
				kept[ti] = nil
			} else {
				kept[ti] = t.keep(kept[ti])
			}
		})
		lo = hi
	}
	for _, sc := range scratch {
		if sc != nil {
			rb.stats.Pushes += sc.pushes
			rb.stats.StalePops += sc.stale
		}
	}
	rb.freeze(c)
	return nil
}

// disconnected is computeRoutes' error once a column found a switch
// with no path to its destination. Every column of a disconnected graph
// strands some switch, host 0's included, so the error names host 0 and
// the lowest switch cut off from it, whatever order the columns were
// computed in.
func (c *Compiled) disconnected() error {
	d := c.Hosts[0].Switch
	bad := c.fillColumn(newSSSP(c.Switches), d, make([]int32, c.Switches))
	return fmt.Errorf("topology: switch %d cannot reach host %d (switch %d): graph is disconnected", bad, 0, d)
}

// tileRun is what the merge found: the tile's switch i starts a run
// toward packed hop v, at the address the latest mark (i < 0) names in v.
// A run ends where the switch's next run starts.
type tileRun struct {
	i, v int32
}

// tileChunk is the length of one chunk of a tile scratch (192 KB).
const tileChunk = 1 << 14

// tileScratch is one merge worker's scratch, reused from tile to tile
// and from batch to batch: the runs the tile's switches start in one
// batch, in merge order. They fill fixed chunks, so the scratch grows
// to a worker's largest tile without ever copying a run.
type tileScratch struct {
	chunks [][]tileRun // chunks[:used] hold the tile's runs; the rest wait
	used   int
}

// merge collects the runs that switches [sLo, sLo+len(last)) start in
// a batch — its columns in address order, column ci's hosts from address
// at[ci], a new run wherever a column leaves the hop of the switch's
// newest run — and counts them in n.
func (t *tileScratch) merge(cols [][]int32, at []int32, sLo int, last, n []int32) {
	t.used = 0
	var cur []tileRun // the chunk being filled
	for ci, a := range at {
		if cap(cur)-len(cur) <= len(last) { // no room for a mark and a whole column
			// A chunk need not hold more than every column's worth.
			cur = t.next(cur, min(tileChunk, (len(last)+1)*len(cols)))
		}
		cur = append(cur, tileRun{-1, a})
		mark := len(cur)
		for i, p := range cols[ci][sLo : sLo+len(last)] {
			if p != last[i] {
				last[i] = p
				n[i]++
				cur = append(cur, tileRun{int32(i), p})
			}
		}
		if len(cur) == mark {
			cur = cur[:mark-1] // a mark for no run
		}
	}
	t.chunks[t.used-1] = cur
}

// next files the chunk being filled and returns the next one, empty,
// with room for at least size runs.
func (t *tileScratch) next(cur []tileRun, size int) []tileRun {
	if t.used > 0 {
		t.chunks[t.used-1] = cur
	}
	if t.used == len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	if cap(t.chunks[t.used]) < size {
		t.chunks[t.used] = make([]tileRun, 0, size)
	}
	t.used++
	return t.chunks[t.used-1][:0]
}

// keep appends the tile's runs to kept and returns it: the full chunks
// themselves, which the scratch gives up, and a copy of the last one,
// which the scratch keeps filling.
func (t *tileScratch) keep(kept [][]tileRun) [][]tileRun {
	part := t.chunks[t.used-1]
	kept = append(kept, t.chunks[:t.used-1]...)
	if len(part) > 0 {
		kept = append(kept, slices.Clone(part))
	}
	t.chunks = t.chunks[t.used-1:]
	return kept
}

// finish makes the rows of switches sLo, sLo+1, … — n[i] runs for the
// tile's switch i, found in the chunks of prior and then of runs — each
// at its exact length, and hashes them.
func (rb *routeBuilder) finish(c *Compiled, sLo int, n []int32, prior, runs [][]tileRun) {
	rows := rb.rows[sLo : sLo+len(n)]
	w := c.w
	for i, k := range n {
		rows[i] = make([]uint32, k)
		rows[i][k-1] = uint32(len(c.Hosts)) << w // the last interval's end
	}
	clear(n) // now: where each switch's next run goes
	for _, chunks := range [2][][]tileRun{prior, runs} {
		for _, ch := range chunks {
			start := int32(0)
			for _, r := range ch {
				if r.i < 0 {
					start = r.v
					continue
				}
				// The run's start ends the interval before it; its packed
				// hop becomes the switch's adjacency slot, the code in the
				// word's low bits (Row).
				row, k := rows[r.i], n[r.i]
				if k > 0 {
					row[k-1] |= uint32(start) << w
				}
				row[k] |= uint32(c.slotOf(sLo+int(r.i), r.v) + 2)
				n[r.i]++
			}
		}
	}
	for i, row := range rows {
		rb.hash[sLo+i] = hashRow(row)
	}
}

// fillColumn computes dest d's packed next-hop column: col[s] is the
// hop switch s uses toward d (hopLocal at d itself). It returns the
// lowest switch index that cannot reach d, or -1 when all can.
func (c *Compiled) fillColumn(sc *sssp, d int, col []int32) (bad int32) {
	bad = -1
	for s, n := range sc.run(c, d) {
		col[s] = n.hop
		if n.hop == hopUnreachable && bad < 0 {
			bad = int32(s)
		}
	}
	return bad
}

// maxDist is the distance of a switch with no path. Every path cost is
// below it: syncArcs and ApplyLinkChange keep the sum of the finite link
// weights, which bounds any simple path, at most maxDist-1.
const maxDist = time.Duration(1<<63 - 1)

// addDist is d+w saturating at maxDist. A shortest path never gets
// there, but a relaxation also prices the step back over the edge a
// switch was reached by — the weight sum plus one more weight, at worst
// — and saturated, that offer loses every comparison.
func addDist(d, w time.Duration) time.Duration {
	if s := d + w; s >= 0 {
		return s
	}
	return maxDist
}

// downWt is the in-place weight of a link taken down by
// ApplyLinkChange. Every route scan — relaxation, next-hop selection,
// the incremental updater's endpoint probes — skips such links
// outright, so a down link carries no routes while the CSR adjacency
// (and with it every interned row's slot numbering) stays untouched.
const downWt = maxDist

// arc is one CSR half-edge as the relaxation loop reads it, 16 bytes
// parallel to adjSw/adjHop. wt stays the source of truth for the weight;
// syncArcs and setWeight keep w equal to it.
type arc struct {
	w   time.Duration // wt of the half-edge's link (downWt: skipped)
	v   int32         // adjSw: the switch the half-edge leads to
	hop int32         // adjHop^1: the same link, seen from v
}

// finite is w as it counts toward the weight sum: a down link adds 0.
func finite(w time.Duration) time.Duration {
	if w == downWt {
		return 0
	}
	return w
}

// syncArcs rebuilds the arc records and the weight sum from wt at the
// start of every route compile, so none reads a weight wt does not
// hold. It refuses weights whose sum passes maxDist-1: a simple path
// crosses a link at most once, so below that no path cost overflows.
func (c *Compiled) syncArcs() error {
	sum := time.Duration(0)
	for li, w := range c.wt {
		if finite(w) > maxDist-1-sum {
			return fmt.Errorf("topology: link %d (weight %v) takes the sum of the link weights past %v: path costs would overflow", li, w, maxDist-1)
		}
		sum += finite(w)
	}
	c.wtSum = sum
	c.arcs = make([]arc, len(c.adjHop))
	for i, hop := range c.adjHop {
		c.arcs[i] = arc{w: c.wt[hop>>1], v: c.adjSw[i], hop: hop ^ 1}
	}
	return nil
}

// setWeight is the one place a compiled link changes weight: wt, the
// link's two arc records and the weight sum move together.
func (c *Compiled) setWeight(li int, w time.Duration) {
	c.wtSum += finite(w) - finite(c.wt[li])
	c.wt[li] = w
	l := c.Links[li]
	c.arcs[c.adjOff[l.A]+c.slotOf(l.A, packHop(li, 0))].w = w
	c.arcs[c.adjOff[l.B]+c.slotOf(l.B, packHop(li, 1))].w = w
}

// qNode is one queue entry: switch sw offered at distance d. next is
// the index of the bucket's next entry, 0 where the list ends.
type qNode struct {
	d    time.Duration
	sw   int32
	next int32
}

// radixQ is the priority queue of every Dijkstra in this package: a
// monotone radix heap with lazy deletion (DESIGN.md §13). Bucket b holds
// the keys whose highest bit differing from last, the key popped most
// recently, is bit b-1; bucket 0 the keys equal to it. So every key
// pushed after a pop must be at least the key popped (a settled distance
// plus a weight; seeds go in before the first pop) and below 2⁶³. The
// entries sit in one array in push order (from index 1: 0 means none),
// each bucket a list threaded through it.
type radixQ struct {
	last time.Duration
	mask uint64    // bit b set: bucket b is non-empty
	head [64]int32 // first entry of each bucket, 0 when empty
	n    []qNode
	// front[:nf] holds up to two entries out of the buckets, ascending,
	// none above any bucket entry: the one or two frontiers of a chain or
	// a ring are pushed and popped without ever being filed.
	front [2]qNode
	nf    int
}

// reset empties the queue for a new run; the zero radixQ needs it too.
func (q *radixQ) reset() {
	for m := q.mask; m != 0; m &= m - 1 {
		q.head[bits.TrailingZeros64(m)] = 0
	}
	q.n, q.mask, q.last, q.nf = append(q.n[:0], qNode{}), 0, 0, 0
}

func (q *radixQ) empty() bool { return q.mask == 0 && q.nf == 0 }

func (q *radixQ) push(d time.Duration, sw int32) {
	e := qNode{d: d, sw: sw}
	// e joins the front if the buckets are empty and there is room, or if
	// it is below the front's largest, which it then moves up or out.
	if f := &q.front; q.nf < 2 && q.mask == 0 || q.nf > 0 && d < f[q.nf-1].d {
		if q.nf > 0 && d < f[0].d {
			e, f[0] = f[0], e
		}
		if q.nf < 2 {
			f[q.nf] = e
			q.nf++
			return
		}
		e, f[1] = f[1], e // out: filed like any other entry
	}
	b := bits.Len64(uint64(e.d^q.last)) & 63
	e.next = q.head[b]
	q.n = append(q.n, e)
	q.head[b] = int32(len(q.n) - 1)
	q.mask |= 1 << b
}

// pop removes and returns an entry with the smallest key (the queue is
// not empty): the front's, else bucket 0's, refilled from the lowest
// non-empty bucket when it is empty — every entry moved lands strictly
// lower, 63 moves at most in its life.
func (q *radixQ) pop() qNode {
	if q.nf > 0 {
		top := q.front[0]
		q.front[0] = q.front[1]
		q.nf--
		if q.mask == 0 {
			q.last = top.d // nothing is filed against the old one
		}
		return top
	}
	if q.mask&1 == 0 {
		b := bits.TrailingZeros64(q.mask) & 63
		q.mask &= q.mask - 1
		h := q.head[b]
		q.head[b] = 0
		top := q.n[h]
		lo, hi := top.d, top.d
		for i := top.next; i != 0; i = q.n[i].next {
			lo, hi = min(lo, q.n[i].d), max(hi, q.n[i].d)
		}
		q.last = lo
		if lo == hi { // one key throughout: the rest of the list is bucket 0 as it stands
			if q.head[0] = top.next; top.next != 0 {
				q.mask |= 1
			}
			return top
		}
		for i := h; i != 0; { // every entry lands below bucket b, lo's in bucket 0
			e := &q.n[i]
			to := bits.Len64(uint64(e.d^lo)) & 63
			i, e.next, q.head[to] = e.next, q.head[to], i
			q.mask |= 1 << to
		}
	}
	top := q.n[q.head[0]]
	q.head[0] = top.next
	if top.next == 0 {
		q.mask &^= 1
	}
	return top
}

// sssp is one worker's single-source shortest-path scratch. Dijkstra's
// distances are unique and the hop rule hears every offer whatever the
// order, so the queue's order among equal keys cannot show in the result.
type sssp struct {
	nd            []distHop
	q             radixQ
	pushes, stale int64 // queue traffic of every run so far
}

// distHop is a switch's state in one run: its distance to the
// destination and the packed hop it takes toward it.
type distHop struct {
	d   time.Duration
	hop int32
}

func newSSSP(n int) *sssp {
	// A run pushes every reachable switch at least once.
	return &sssp{nd: make([]distHop, n), q: radixQ{n: make([]qNode, 0, n+1)}}
}

// run returns every switch's shortest distance to dst under the link
// weight metric (maxDist where there is no path) with the packed hop it
// takes toward it: hopLocal at dst, hopUnreachable where there is no
// path. The slice is the scratch's own, valid until the next run. The
// hop is chosen as the switch is relaxed, by repairDecrease's rule: a
// strictly cheaper offer displaces the incumbent, an equal one takes
// the lower hop. Every neighbour on a shortest path makes its offer
// when it settles, so the survivor is the lowest link index among the
// equal-cost hops — half-edges are in link order, so packed hops compare
// as links do.
func (sc *sssp) run(c *Compiled, dst int) []distHop {
	nd := sc.nd
	for s := range nd {
		nd[s] = distHop{maxDist, hopUnreachable}
	}
	nd[dst] = distHop{0, hopLocal}
	sc.q.reset()
	sc.q.push(0, int32(dst))
	pushes, stale := int64(1), int64(0)
	for !sc.q.empty() {
		top := sc.q.pop()
		if top.d > nd[top.sw].d { // stale entry (lazy deletion)
			stale++
			continue
		}
		for i, end := c.adjOff[top.sw], c.adjOff[top.sw+1]; i < end; i++ {
			a := &c.arcs[i]
			if a.w == downWt { // down links carry no routes
				continue
			}
			v := &nd[a.v]
			if d := addDist(top.d, a.w); d < v.d {
				*v = distHop{d, a.hop}
				sc.q.push(d, a.v)
				pushes++
			} else if d == v.d && a.hop < v.hop {
				v.hop = a.hop
			}
		}
	}
	sc.pushes += pushes
	sc.stale += stale
	return nd
}

// forEachParallel runs fn(w, i) for every i in [0,n) across at most
// `workers` goroutines pulling from a shared counter; w < workers names
// the goroutine, so fn can keep per-worker scratch by index. fn must be
// safe for concurrent calls with distinct i. workers <= 1 (or n <= 1)
// runs inline.
func forEachParallel(workers, n int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
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
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
