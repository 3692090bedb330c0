package packet

import "fmt"

// Pool is a per-run free list of Packets. At steady state every packet a
// simulation sends is recycled from a previous one, so the per-packet
// path performs zero heap allocations and generates no garbage — the
// property the steady-state allocation benchmarks assert.
//
// # Ownership protocol
//
// A *Packet obtained from Get has exactly one owner at a time:
//
//  1. The creator (a TCP endpoint) owns the packet until it hands it to
//     the network via Send.
//  2. Queues, links, and delay elements own the packet while it is
//     buffered or in flight, and pass ownership downstream on delivery.
//  3. The terminal sink — the endpoint whose Handle consumes the packet —
//     releases it back to the pool when Handle returns.
//  4. A drop releases the packet at the drop site (the port or error
//     model that discarded it), after the drop hooks have run.
//
// Observation hooks (OnSend, OnDepart, OnDrop, OnAckArrival, …) are
// called while the packet is still owned by the caller; they may read
// fields but must not retain the pointer past their return.
//
// A nil *Pool is valid and disables pooling: Get falls back to the heap
// and Put is a no-op, which is the behavior the pre-pool simulator had.
// Pools are not safe for concurrent use; a simulation run owns its pool
// the same way it owns its event engine.
//
// # Release checking
//
// The pool always verifies the protocol: Put panics on a double release
// and on a packet still in a Queue, and released packets are poisoned
// (negative Size and Seq, zero ID) so that a use-after-release packet
// fails fast — a poisoned Size makes the first transmission attempt
// panic in the engine rather than silently corrupt a run. The checks
// are branch-cheap, so they stay on outside tests too.
type Pool struct {
	free []*Packet
	// allocs counts pool misses (fresh heap allocations); gets and puts
	// count traffic. Steady state is gets ≫ allocs.
	allocs, gets, puts uint64
}

// NewPool returns an empty pool. The first Get calls allocate; a warmed
// pool recycles.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet owned by the caller. On a nil pool it
// simply allocates.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return new(Packet)
	}
	pl.gets++
	n := len(pl.free)
	if n == 0 {
		pl.allocs++
		return new(Packet)
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	*p = Packet{}
	return p
}

// Put releases p back to the pool. Releasing the same packet twice
// without an intervening Get panics, and so does releasing a packet
// still in a Queue; releasing nil or releasing into a nil pool is a
// no-op (the packet is left for the garbage collector).
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.released {
		panic(fmt.Sprintf("packet: double release of packet ID=%d seq=%d", p.ID, p.Seq))
	}
	if p.next != nil {
		panic(fmt.Sprintf("packet: release of queued packet ID=%d seq=%d", p.ID, p.Seq))
	}
	// Poison: a later use of this pointer sees an impossible packet. A
	// negative Size in particular makes Port.Send panic inside the engine
	// (negative transmission time) instead of corrupting the run.
	*p = Packet{ID: 0, Seq: poisonSeq, Size: poisonSize, released: true}
	pl.puts++
	pl.free = append(pl.free, p)
}

// Poison values written into released packets. They are impossible in a
// live packet: sizes are non-negative and sequence numbers start at 0.
const (
	poisonSeq  = -1 << 30
	poisonSize = -1 << 30
)

// Released reports whether p is currently in a pool (released and not
// yet handed out again). It exists for the protocol tests.
func (p *Packet) Released() bool { return p.released }

// Free returns the number of packets currently in the free list.
func (pl *Pool) Free() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

// Allocs returns the number of Get calls that had to allocate. A warmed
// steady-state pool stops growing this counter.
func (pl *Pool) Allocs() uint64 {
	if pl == nil {
		return 0
	}
	return pl.allocs
}

// Recycled returns the number of Get calls served from the free list.
func (pl *Pool) Recycled() uint64 {
	if pl == nil {
		return 0
	}
	return pl.gets - pl.allocs
}

// ResetCounters zeroes the per-run statistics while keeping the free
// list warm. Arena reuse (core.Arena) calls it between runs so Allocs
// reports each run's pool misses rather than the arena lifetime's —
// which also means a warm arena legitimately reports ~0 allocs where a
// cold run reports hundreds; the pool/* metrics are diagnostics, not
// physics, and are excluded from run-identity comparisons.
func (pl *Pool) ResetCounters() {
	if pl == nil {
		return
	}
	pl.allocs, pl.gets, pl.puts = 0, 0, 0
}
