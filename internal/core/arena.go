package core

import (
	"context"
	"sync"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/node"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/tcp"
	"tahoedyn/internal/trace"
)

// Arena is a reusable allocation context for back-to-back simulation
// runs. A fresh Build allocates an engine (wheel buckets, event free
// list), a packet pool, the backing arrays of every per-run log and —
// when tracing is on — the trace rings; an Arena keeps all of that warm
// between runs, so an N-point sweep pays the allocation cost once per
// worker instead of once per point. It keeps the log capacity of its
// largest run (30 MB after a 10 000 sim-s dumbbell, 8 MB of it departures)
// until it is dropped.
//
// Ownership rule (DESIGN.md §11): a Result never references arena
// memory; what escapes is copied at Finish, at its exact length. Engine
// storage, the packet free list and the trace rings are invisible to
// callers and recycled in place; the logs a Result carries are appended
// into slabs the arena lends (logSlabs), each owned at any instant by
// the arena or by the one Sim that took it. Reuse is therefore
// behavior-neutral: an arena run is byte-identical to a cold run
// (arena_test.go, arena_lend_test.go), but for the pool/* metrics, which
// count per-run pool misses: a warm arena keeps them near zero.
//
// An Arena is single-goroutine property like the engine it recycles: it
// may own at most one live Sim at a time, and the next Build must not
// happen before the previous run finished (or was abandoned — Build
// resets the engine first, so a canceled run's leftovers are recycled,
// not leaked into the next run's schedule; the slabs an abandoned Sim
// took are garbage with it, so it can alias nobody's Result).
type Arena struct {
	// One store per region, grown to the largest shard count the arena
	// has seen. Region 0 is the serial run's, so alternating serial and
	// sharded runs keeps it warm for both.
	regions []regionStore

	// Wiring slabs: the per-run element slices buildE needs (switches,
	// hosts, trunk port pairs, senders, receivers). They are held by the
	// live Sim but never escape into a Result, so under the one-live-Sim
	// contract the next Build may reclaim their backing arrays. At 10⁵
	// switches the switch slice alone is ~1 MB per run; a sweep reuses it.
	swSlab    []*node.Switch
	hostSlab  []*node.Host
	trunkSlab [][2]*link.Port
	sendSlab  []*tcp.Sender
	recvSlab  []*tcp.Receiver

	logs logSlabs
}

// regionStore is what the arena recycles in place for one region of a run.
type regionStore struct {
	eng  *sim.Engine
	pool *packet.Pool
	// tracer is the last traced run's. That run has finished or been
	// abandoned by the Arena contract, and every call into its Sim returned
	// with no batch at the sink: the next traced build takes its ring slab.
	tracer *obs.Tracer
}

// stores returns the first k region stores made ready for a new run: in
// each an engine of the kind asked for — the kept one, reset, when its
// kind matches, otherwise a fresh one kept for next time — and a packet
// pool with its per-run counters at zero.
func (a *Arena) stores(kind sim.SchedKind, k int) []regionStore {
	for len(a.regions) < k {
		a.regions = append(a.regions, regionStore{})
	}
	for r := range a.regions[:k] {
		st := &a.regions[r]
		if st.eng != nil && st.eng.Kind() == sim.ResolveSched(kind) {
			st.eng.Reset()
		} else {
			st.eng = sim.NewSched(kind)
		}
		if st.pool == nil {
			st.pool = packet.NewPool()
		} else {
			st.pool.ResetCounters()
		}
	}
	return a.regions[:k]
}

// lent is the arena's free list of one element type's log slabs; slot i
// backs the i-th log of that type a build takes. take moves the slab out
// and leaves the slot nil: while a Sim appends into a slab the arena has
// no reference to it, or to the array append left behind outgrowing it.
// give, in the same order after rewind, moves it back as it then is.
type lent[T any] struct {
	slabs [][]T
	next  int
}

// take returns an empty log with room for n: the slot's slab, or a fresh one.
func (l *lent[T]) take(n int) []T {
	var s []T
	if i := l.next; i < len(l.slabs) {
		s, l.slabs[i] = l.slabs[i], nil
	}
	l.next++
	if cap(s) < n {
		s = make([]T, 0, n)
	}
	return s[:0]
}

// give puts a log's backing array into the next slot.
func (l *lent[T]) give(log []T) {
	if l.next == len(l.slabs) {
		l.slabs = append(l.slabs, nil)
	}
	l.slabs[l.next] = log[:0]
	l.next++
}

// settle ends the loan of a log the Result carries: the slab goes back,
// the Result gets an exact-length copy. The append is slices.Clone's (it
// zeroes nothing it copies over), but Clone of an empty log views the slab.
func (l *lent[T]) settle(log []T) []T {
	l.give(log)
	return append([]T{}, log...)
}

// logSlabs is the arena's log storage, one list per element type. A
// build without an arena takes from a zero one: every log at its estimate.
type logSlabs struct {
	points lent[trace.Point]     // queue series per measured trunk port, then cwnd and RTT series per measured conn
	deps   lent[trace.Departure] // departure log per measured trunk port
	times  lent[time.Duration]   // ACK arrival times per measured conn
	drops  lent[dropRec]         // drop log per region
	merge  []dropRec             // mergeDrops' concatenation of a sharded run's drop logs
}

// rewind starts a pass over the slots: a build's takes, a settle's gives.
func (l *logSlabs) rewind() {
	l.points.next, l.deps.next, l.times.next, l.drops.next = 0, 0, 0, 0
}

// settle ends the loan of every log of a run, in the order buildE took
// them: those res carries are replaced by copies, the drop logs (merged
// into res.Drops by now) only go back. A build that failed settles too.
func (l *logSlabs) settle(res *Result, dropLogs [][]dropRec) {
	l.rewind()
	for i := range res.TrunkQueue {
		for dir, q := range res.TrunkQueue[i] {
			if q != nil { // a measured trunk
				q.Points = l.points.settle(q.Points)
				res.TrunkDeps[i][dir] = l.deps.settle(res.TrunkDeps[i][dir])
			}
		}
	}
	for k, cw := range res.Cwnd {
		if cw != nil { // a measured connection
			cw.Points = l.points.settle(cw.Points)
			rtt := res.RTT[k]
			if rtt.Points = l.points.settle(rtt.Points); len(rtt.Points) == 0 {
				rtt.Points = nil // as NewSeries leaves a series without a sample
			}
			res.AckArrivals[k] = l.times.settle(res.AckArrivals[k])
		}
	}
	for r, log := range dropLogs {
		l.drops.give(log)
		dropLogs[r] = nil // a drop after Finish starts a log nobody reads; it must not land in the slab
	}
}

// slab returns a zeroed length-n slice backed by *buf, growing the
// backing array only when n exceeds its capacity.
func slab[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// wiring hands buildE its element slices, reusing the arena's slabs.
func (a *Arena) wiring(nSw, nh, nl, nc int) ([]*node.Switch, []*node.Host, [][2]*link.Port, []*tcp.Sender, []*tcp.Receiver) {
	return slab(&a.swSlab, nSw), slab(&a.hostSlab, nh),
		slab(&a.trunkSlab, nl), slab(&a.sendSlab, nc), slab(&a.recvSlab, nc)
}

// NewArena returns an empty arena: its first Build allocates, later
// Builds reuse.
func NewArena() *Arena { return &Arena{} }

// Build is Arena-backed core.Build: it assembles a runnable Sim drawing
// warm storage from the arena, panicking on an invalid configuration.
func (a *Arena) Build(cfg Config) *Sim {
	s, err := a.BuildE(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// BuildE is Build with error reporting.
func (a *Arena) BuildE(cfg Config) (*Sim, error) {
	return buildE(cfg, a)
}

// Run builds and finishes the scenario using the arena's warm storage.
func (a *Arena) Run(cfg Config) *Result {
	return a.Build(cfg).Finish()
}

// RunE is Run with error reporting.
func (a *Arena) RunE(cfg Config) (*Result, error) {
	s, err := a.BuildE(cfg)
	if err != nil {
		return nil, err
	}
	return s.finish(nil)
}

// RunContext is RunE with cancellation; see core.RunContext.
func (a *Arena) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := a.BuildE(cfg)
	if err != nil {
		return nil, err
	}
	return s.FinishContext(ctx)
}

// arenaPool shares warm arenas across every core.Run/RunE/RunContext in
// the process: sequential runs on one goroutine keep hitting the same
// warm arena, and parallel runs each draw their own.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) { arenaPool.Put(a) }
