package core

import (
	"context"
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
// list), a packet pool, and — when tracing is on — the trace rings; an
// Arena keeps all of that warm between runs, so an N-point sweep pays
// the allocation cost once per worker instead of once per point.
//
// Ownership rules (DESIGN.md §11): the arena owns only memory that does
// NOT escape into a Result. Engine bucket/run/free storage, the packet
// free list, and the trace rings are invisible to callers and safe to
// recycle; Result-owned containers (plot series, drop and departure
// logs, the metrics registry) are handed to the caller and are always
// freshly allocated. Reuse is therefore behavior-neutral: an arena run
// is byte-identical to a cold run (asserted by arena_test.go). The one
// observable difference is diagnostic: pool/* metrics count per-run
// pool misses, and a warm arena keeps them near zero.
//
// An Arena is single-goroutine property like the engine it recycles: it
// may own at most one live Sim at a time, and the next Build must not
// happen before the previous run finished (or was abandoned — Build
// resets the engine first, so a canceled run's leftovers are recycled,
// not leaked into the next run's schedule).
type Arena struct {
	eng    *sim.Engine
	pool   *packet.Pool
	tracer *obs.Tracer // previous run's tracer; its ring slab is reclaimed on the next Build

	// Extra per-region storage for sharded runs: region r > 0 draws from
	// slot r-1 (region 0 shares the serial slots above, so alternating
	// serial and sharded runs keeps them warm too). Slices grow to the
	// largest shard count the arena has seen.
	engs    []*sim.Engine
	pools   []*packet.Pool
	tracers []*obs.Tracer

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
// A nil arena allocates fresh ones.
func (a *Arena) wiring(nSw, nh, nl, nc int) ([]*node.Switch, []*node.Host, [][2]*link.Port, []*tcp.Sender, []*tcp.Receiver) {
	if a == nil {
		return make([]*node.Switch, nSw), make([]*node.Host, nh),
			make([][2]*link.Port, nl), make([]*tcp.Sender, nc), make([]*tcp.Receiver, nc)
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

// engine returns an engine of the kind cfg selects: the kept one,
// reset, when its kind matches; otherwise a fresh one that the arena
// keeps for next time. A nil arena always allocates.
func (a *Arena) engine(kind sim.SchedKind) *sim.Engine {
	if a == nil {
		return sim.NewSched(kind)
	}
	if a.eng != nil && a.eng.Kind() == sim.ResolveSched(kind) {
		a.eng.Reset()
		return a.eng
	}
	a.eng = sim.NewSched(kind)
	return a.eng
}

// packetPool returns the kept packet pool with its per-run counters
// reset, or a fresh one. A nil arena always allocates.
func (a *Arena) packetPool() *packet.Pool {
	if a == nil {
		return packet.NewPool()
	}
	if a.pool == nil {
		a.pool = packet.NewPool()
	} else {
		a.pool.ResetCounters()
	}
	return a.pool
}

// traceRing reclaims the previous run's trace rings, if any (one slab).
// The previous run has finished or been abandoned by the Arena contract,
// and every call into its Sim returned with no batch at the sink.
func (a *Arena) traceRing() []obs.Event {
	if a == nil || a.tracer == nil {
		return nil
	}
	r := a.tracer.Ring()
	a.tracer = nil
	return r
}

// keepTracer remembers the new run's tracer so the ring can be
// reclaimed on the next Build. No-op on a nil arena.
func (a *Arena) keepTracer(t *obs.Tracer) {
	if a != nil {
		a.tracer = t
	}
}

// engines returns k engines of the kind cfg selects: engine(kind) for
// region 0 and the arena's extra slots (reset when the kind matches,
// replaced otherwise) for the rest. A nil arena allocates all of them.
func (a *Arena) engines(kind sim.SchedKind, k int) []*sim.Engine {
	out := make([]*sim.Engine, k)
	out[0] = a.engine(kind)
	if a == nil {
		for i := 1; i < k; i++ {
			out[i] = sim.NewSched(kind)
		}
		return out
	}
	for len(a.engs) < k-1 {
		a.engs = append(a.engs, nil)
	}
	for i := 1; i < k; i++ {
		e := a.engs[i-1]
		if e != nil && e.Kind() == sim.ResolveSched(kind) {
			e.Reset()
		} else {
			e = sim.NewSched(kind)
			a.engs[i-1] = e
		}
		out[i] = e
	}
	return out
}

// packetPools is packetPool for k regions, counter-reset like the
// serial slot. A nil arena allocates all of them.
func (a *Arena) packetPools(k int) []*packet.Pool {
	out := make([]*packet.Pool, k)
	out[0] = a.packetPool()
	if a == nil {
		for i := 1; i < k; i++ {
			out[i] = packet.NewPool()
		}
		return out
	}
	for len(a.pools) < k-1 {
		a.pools = append(a.pools, nil)
	}
	for i := 1; i < k; i++ {
		if a.pools[i-1] == nil {
			a.pools[i-1] = packet.NewPool()
		} else {
			a.pools[i-1].ResetCounters()
		}
		out[i] = a.pools[i-1]
	}
	return out
}

// shardRing reclaims region r's trace ring from the previous sharded
// run (region 0 reclaims the serial ring).
func (a *Arena) shardRing(r int) []obs.Event {
	if r == 0 {
		return a.traceRing()
	}
	if a == nil || r-1 >= len(a.tracers) || a.tracers[r-1] == nil {
		return nil
	}
	ring := a.tracers[r-1].Ring()
	a.tracers[r-1] = nil
	return ring
}

// keepTracers remembers a sharded run's region tracers so their rings
// can be reclaimed on the next Build. No-op on a nil arena.
func (a *Arena) keepTracers(ts []*obs.Tracer) {
	if a == nil {
		return
	}
	a.keepTracer(ts[0])
	for len(a.tracers) < len(ts)-1 {
		a.tracers = append(a.tracers, nil)
	}
	for i := 1; i < len(ts); i++ {
		a.tracers[i-1] = ts[i]
	}
}

// arenaPool shares warm arenas across every core.Run/RunE/RunContext in
// the process: sequential runs on one goroutine keep hitting the same
// warm arena, and parallel runs each draw their own.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) { arenaPool.Put(a) }
