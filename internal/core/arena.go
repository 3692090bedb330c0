package core

import (
	"context"
	"slices"
	"sync"

	"tahoedyn/internal/link"
	"tahoedyn/internal/node"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/tcp"
)

// Arena is a reusable allocation context for back-to-back simulation
// runs. A fresh Build allocates an engine (wheel buckets, event free
// list), a packet pool, the chunks of every per-run log and — when
// tracing is on — the trace rings; an Arena keeps all of that warm
// between runs, so an N-point sweep pays the allocation cost once per
// worker instead of once per point. It keeps the log chunks of its
// largest run — what that run wrote and at most a chunk more a log:
// 8.3 MB after a 10 000 sim-s dumbbell that wrote 7.7 MB — until it is
// dropped.
//
// Ownership rule (DESIGN.md §11): a Result never references arena
// memory; what escapes is copied at Finish, at its exact length. Engine
// storage, the packet free list and the trace rings are invisible to
// callers and recycled in place; the logs a Result carries are appended
// into chunks from the region's pools (logPools), each chunk owned at
// any instant by its pool or by the one Sim that took it. Reuse is
// therefore behavior-neutral: an arena run is byte-identical to a cold
// run (arena_test.go, arena_lend_test.go), but for the pool/* metrics,
// which count per-run pool misses: a warm arena keeps them near zero.
//
// An Arena is single-goroutine property like the engine it recycles: it
// may own at most one live Sim at a time, and the next Build must not
// happen before the previous run finished (or was abandoned — Build
// resets the engine first, so a canceled run's leftovers are recycled,
// not leaked into the next run's schedule, and the packets its ports and
// events held go back to the pool; the chunks an abandoned Sim took are
// garbage with it, so it can alias nobody's Result).
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

	// ports is every output port of the last build. The next build
	// returns the packets they still hold to their pools.
	ports []*link.Port

	merge []dropRec // mergeDrops' concatenation of a run's drop logs
}

// regionStore is what the arena recycles in place for one region of a run.
type regionStore struct {
	eng  *sim.Engine
	pool *packet.Pool
	// tracer is the last traced run's. That run has finished or been
	// abandoned by the Arena contract, and every call into its Sim returned
	// with no batch at the sink: the next traced build takes its ring slab.
	tracer *obs.Tracer
	// logs is a pointer: a run's logs point into their pools, which must
	// stay where they are when a later build grows the region list.
	logs *logPools
}

// stores returns the first k region stores made ready for a new run: in
// each an engine of the kind asked for — the kept one, reset, when its
// kind matches, otherwise a fresh one kept for next time — a packet
// pool with its per-run counters at zero, and log pools with nothing
// taken yet. The packets the last run still had in flight, in its ports
// and its engines' events, go back to their pools first, and the port
// list is emptied for the new build's.
func (a *Arena) stores(kind sim.SchedKind, k int) []regionStore {
	for _, pt := range a.ports {
		pt.Reclaim()
	}
	clear(a.ports)
	a.ports = a.ports[:0]
	for len(a.regions) < k {
		a.regions = append(a.regions, regionStore{logs: newLogPools(), pool: packet.NewPool()})
	}
	for r := range a.regions[:k] {
		st := &a.regions[r]
		if st.eng != nil {
			st.eng.Reset(st.pool)
		}
		if st.eng == nil || st.eng.Kind() != sim.ResolveSched(kind) {
			st.eng = sim.NewSched(kind)
		}
		st.pool.ResetCounters()
		st.logs.held = 0
	}
	return a.regions[:k]
}

// logPools is one region's chunk pools, one per element type of the
// logs a run keeps, and the count of what the run took from them.
type logPools struct {
	deltas    chunkPool[uint32]        // the times of every time-stamped log, and the admissions that evicted
	values    chunkPool[float64]       // window and RTT series values per measured conn
	deps      chunkPool[depRest]       // departures but for their times, per measured trunk port
	collapses chunkPool[CollapseEvent] // window collapses per measured conn
	drops     chunkPool[dropRec]       // the region's drop log
	held      int                      // bytes of the chunks the run's logs took: Snapshot.LogBytes
}

func newLogPools() *logPools {
	lp := &logPools{}
	lp.deltas.held, lp.values.held, lp.deps.held = &lp.held, &lp.held, &lp.held
	lp.collapses.held, lp.drops.held = &lp.held, &lp.held
	return lp
}

// slab returns a zeroed length-n slice backed by *buf, growing the
// backing array only when n exceeds its capacity. *buf keeps the length
// of the slice last handed out, so that the next call clears all that
// slice held: a smaller build keeps no reference into a larger one.
func slab[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		clear((*buf)[:max(n, len(*buf))])
		*buf = (*buf)[:n]
	}
	return *buf
}

// wiring hands buildE its element slices, reusing the arena's slabs, and
// makes room in the port list for the build's two ports a host and a link.
func (a *Arena) wiring(nSw, nh, nl, nc int) ([]*node.Switch, []*node.Host, [][2]*link.Port, []*tcp.Sender, []*tcp.Receiver) {
	if n := 2 * (nh + nl); n > len(a.ports) {
		a.ports = slices.Grow(a.ports, n-len(a.ports))
	}
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
