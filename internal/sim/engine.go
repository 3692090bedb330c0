// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a queue of events. Events
// scheduled for the same instant fire in the order they were scheduled,
// which makes every run bit-reproducible: there is no wall-clock time and
// no goroutine scheduling anywhere in the simulator.
//
// Two interchangeable schedulers order the queue by (time, sequence):
//
//   - SchedWheel (the scheduler): a hierarchical timing wheel (wheel.go)
//     with O(1) amortized schedule/cancel/pop for the bounded-horizon
//     events that dominate TCP workloads, plus an overflow list for
//     far-future events.
//   - SchedHeap: an inlined 4-ary min-heap with O(log n) sift on every
//     schedule/pop and O(log n) cancel-by-index. Kept as the lockstep
//     referee of the identity tests; only NewSched(SchedHeap) — in a run,
//     core.Config.Sched — selects it.
//
// Both schedulers fire events in exactly the same order — the identity
// is enforced by property tests (sched_test.go) and by byte-identity
// tests over every shipped scenario. Events are recycled through a
// per-engine free list, so steady-state scheduling does not allocate
// under either scheduler, and canceled events never linger: the heap
// removes by index, the wheel swap-removes from its unsorted buckets
// (events already extracted into the sorted active run are cancel-marked
// and recycled at the drain).
package sim

import (
	"fmt"
	"time"

	"tahoedyn/internal/packet"
)

// Time is a point in simulated time, measured as an offset from the start
// of the simulation. The zero value is the simulation epoch.
type Time = time.Duration

// SchedKind selects the event-queue implementation backing an Engine.
type SchedKind uint8

const (
	// SchedDefault means SchedWheel.
	SchedDefault SchedKind = iota
	// SchedWheel is the hierarchical timing wheel (O(1) amortized).
	SchedWheel
	// SchedHeap is the 4-ary min-heap (O(log n)), kept as the referee.
	SchedHeap
)

func (k SchedKind) String() string {
	switch k {
	case SchedWheel:
		return "wheel"
	case SchedHeap:
		return "heap"
	}
	return "default"
}

// ResolveSched maps SchedDefault to the scheduler New uses, the wheel;
// concrete kinds pass through. Arena reuse calls it to decide whether a
// kept engine matches a config.
func ResolveSched(k SchedKind) SchedKind {
	if k == SchedDefault {
		return SchedWheel
	}
	return k
}

// Event location states. An event is always in exactly one place: the
// heap, a wheel bucket (level encoded relative to whereLevel0), the
// wheel's sorted active run, the wheel's overflow list, or detached
// (fired, canceled, never scheduled, or sitting on the free list).
const (
	whereDetached int8 = iota // zero value: Cancel on a zero Event no-ops
	whereHeap
	whereRun
	whereOverflow
	whereLevel0 // wheel level l is whereLevel0 + l
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so the caller can cancel it before it fires.
//
// An Event handle is single-shot: once the callback has run or Cancel has
// returned, the engine recycles the Event for a later Schedule call, and
// the old handle must not be used again. (Calling Cancel twice in a row,
// or after the callback fired, is safe as long as no new event was
// scheduled in between; long-lived holders should clear their reference
// when the callback runs, as sim.Timer does.)
type Event struct {
	at  Time
	seq uint64
	// schedAt/schedAt2 are the event's scheduling lineage: the clock when
	// it was scheduled, and the clock when its scheduling parent was
	// scheduled. They never influence firing order; sharded runs use them
	// as a scheduler-independent tiebreak when merging per-region logs
	// (see internal/shard and ExecLineage).
	schedAt  Time
	schedAt2 Time
	fn       func()
	// sink/arg are the typed-dispatch alternative to fn: when sink is
	// non-nil the event fires as sink.Deliver(arg) instead of fn(). The
	// sink is a long-lived object bound once at wiring time, so the
	// per-packet hot path schedules without allocating a closure.
	sink     PacketSink
	arg      *packet.Packet
	eng      *Engine
	index    int32 // position within the heap, a wheel bucket, or overflow
	where    int8
	slot     uint8 // wheel slot within the level named by where
	canceled bool
}

// PacketSink consumes a packet carried by a typed event. Network
// elements (ports' destinations, hosts, delay elements) implement it;
// binding the sink once at construction is what makes SchedulePacket
// allocation-free, where an equivalent closure would allocate per call.
type PacketSink interface {
	Deliver(p *packet.Packet)
}

// At reports the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing and detaches it from the event
// queue. Canceling an event that already fired or was already canceled is
// a no-op; a nil receiver is also a no-op.
//
// Heap events and wheel events still in an unsorted bucket or the
// overflow list are removed and recycled immediately; a wheel event that
// was already extracted into the sorted active run is cancel-marked and
// recycled when the drain reaches it — either way it will not fire and
// Pending drops right away.
func (e *Event) Cancel() {
	if e == nil || e.where == whereDetached {
		return
	}
	eng := e.eng
	eng.pending--
	where := e.where
	e.canceled = true
	e.fn = nil
	e.sink = nil
	e.arg = nil
	e.where = whereDetached
	switch {
	case where == whereRun:
		// Lazy cancel: the event keeps its place in the sorted run (its
		// timestamp stays valid for the neighbors' binary searches) and
		// joins the free list when the drain skips over it.
		return
	case where == whereHeap:
		eng.removeAt(int(e.index))
	case where == whereOverflow:
		eng.w.removeOverflow(e)
	default:
		eng.w.removeBucket(e, where)
	}
	eng.free = append(eng.free, e)
}

// Canceled reports whether Cancel has been called on the event (and the
// event has not been recycled since).
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event scheduler. The zero value is not usable; use
// New or NewSched.
type Engine struct {
	now     Time
	seq     uint64
	pending int
	// seqOff/seqInc implement the sharded seq stride (SetSeqStride): a
	// locally scheduled event gets seq = seq+seqOff and the counter steps
	// by seqInc. Serial engines run with off 0, inc 1, which is exactly
	// the historical behavior.
	seqOff    uint64
	seqInc    uint64
	processed uint64
	kind      SchedKind
	heap      []*Event
	free      []*Event
	w         *wheel // nil when kind == SchedHeap
	// curSchedAt/curSchedAt2 mirror the firing event's schedAt/schedAt2
	// during exec, so children inherit their lineage (see Event).
	curSchedAt  Time
	curSchedAt2 Time
}

// New returns an engine with an empty event queue and the clock at zero,
// on the timing wheel.
func New() *Engine {
	return NewSched(SchedDefault)
}

// NewSched returns an engine backed by the given scheduler kind.
func NewSched(kind SchedKind) *Engine {
	e := &Engine{kind: ResolveSched(kind), seqInc: 1}
	if e.kind == SchedWheel {
		e.w = newWheel()
	}
	return e
}

// Kind reports which scheduler backs the engine (never SchedDefault).
func (e *Engine) Kind() SchedKind { return e.kind }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far. It is intended
// for benchmarks and engine diagnostics.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently queued. Canceled events
// stop counting the moment Cancel returns, whichever scheduler holds
// them.
func (e *Engine) Pending() int { return e.pending }

// Reset returns the engine to its initial state — clock at zero, empty
// queue, sequence and processed counters rewound — while keeping every
// piece of allocated storage (heap array, wheel buckets, run buffer,
// event free list) warm for the next run. A Reset engine behaves exactly
// like a fresh New: it is the arena-reuse hook, not a mid-run operation.
// A packet a still-queued event carries goes back to pl, the pool it
// was drawn from (nil: it is dropped).
func (e *Engine) Reset(pl *packet.Pool) {
	if e.w != nil {
		e.w.drainInto(e, pl)
	} else {
		for i, ev := range e.heap {
			e.heap[i] = nil
			e.discard(ev, pl)
		}
		e.heap = e.heap[:0]
	}
	e.now = 0
	e.seq = 0
	e.pending = 0
	e.processed = 0
	e.curSchedAt = 0
	e.curSchedAt2 = 0
}

// discard recycles an event that will not fire, releasing the packet it
// carries to pl.
func (e *Engine) discard(ev *Event, pl *packet.Pool) {
	if ev.arg != nil {
		pl.Put(ev.arg)
	}
	e.recycle(ev)
}

// recycle detaches ev and puts it on the free list, clearing callback
// references so nothing is retained across reuse.
func (e *Engine) recycle(ev *Event) {
	ev.where = whereDetached
	ev.canceled = false
	ev.fn = nil
	ev.sink = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Schedule queues fn to run after delay d. A negative delay panics: the
// simulated world cannot schedule work in its own past.
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.at(e.now+d, fn)
}

// ScheduleAt queues fn to run at absolute time t, which must not precede
// the current time.
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	return e.at(t, fn)
}

// SchedulePacket queues sink.Deliver(p) to run after delay d. It is the
// typed, closure-free twin of Schedule for the per-packet hot path: the
// sink is pre-bound by the caller, so nothing is allocated per call.
// Ordering is identical to Schedule — typed and plain events share one
// clock and one sequence counter.
//
// The scheduled event owns p until it fires; a caller that Cancels a
// packet event takes ownership back (and is responsible for releasing
// the packet if it is pooled).
func (e *Engine) SchedulePacket(d time.Duration, sink PacketSink, p *packet.Packet) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	ev := e.at(e.now+d, nil)
	ev.sink = sink
	ev.arg = p
	return ev
}

func (e *Engine) at(t Time, fn func()) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{eng: e}
	}
	ev.at = t
	ev.seq = e.seq + e.seqOff
	ev.fn = fn
	ev.canceled = false
	ev.schedAt = e.now
	ev.schedAt2 = e.curSchedAt
	e.seq += e.seqInc
	e.pending++
	if e.w != nil {
		e.w.push(ev)
		return ev
	}
	ev.where = whereHeap
	i := len(e.heap)
	e.heap = append(e.heap, ev)
	ev.index = int32(i)
	e.siftUp(i)
	return ev
}

// rearm moves a pending timer event to a new firing time, consuming a
// fresh sequence number so the outcome is indistinguishable from Cancel
// followed by ScheduleAt — same (time, seq) key, same free-list state —
// but when the event sits in an unsorted wheel bucket and the new time
// maps to the same bucket, it is updated in place with no queue surgery
// at all. Retransmission timers rearm once per ACK, often onto the same
// RTO grid point, so this is the hottest cancel+schedule pair in TCP
// workloads.
func (e *Engine) rearm(ev *Event, t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if ev.where >= whereLevel0 {
		if l, s, ok := e.w.locate(t); ok &&
			int8(l)+whereLevel0 == ev.where && uint8(s) == ev.slot {
			ev.at = t
			ev.seq = e.seq + e.seqOff
			ev.schedAt = e.now
			ev.schedAt2 = e.curSchedAt
			e.seq += e.seqInc
			return ev
		}
	}
	ev.Cancel()
	return e.ScheduleAt(t, fn)
}

// exec pops bookkeeping for a dequeued event and fires it. The event must
// already be detached from its queue structure.
func (e *Engine) exec(ev *Event) {
	e.pending--
	e.now = ev.at
	e.processed++
	e.curSchedAt = ev.schedAt
	e.curSchedAt2 = ev.schedAt2
	fn, sink, arg := ev.fn, ev.sink, ev.arg
	ev.fn = nil
	ev.sink = nil
	ev.arg = nil
	e.free = append(e.free, ev)
	if sink != nil {
		sink.Deliver(arg)
	} else {
		fn()
	}
}

// Step executes the next event, if any, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if e.w != nil {
		ev := e.wheelNext()
		if ev == nil {
			return false
		}
		e.wheelPop()
		e.exec(ev)
		return true
	}
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0]
	e.removeAt(0)
	e.exec(ev)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to exactly t. Events scheduled for later remain queued.
func (e *Engine) RunUntil(t Time) {
	if e.w != nil {
		for {
			ev := e.wheelNext()
			if ev == nil || ev.at > t {
				break
			}
			e.wheelPop()
			e.exec(ev)
		}
	} else {
		for len(e.heap) > 0 && e.heap[0].at <= t {
			ev := e.heap[0]
			e.removeAt(0)
			e.exec(ev)
		}
	}
	if t > e.now {
		e.now = t
	}
}

// RunUntilN is RunUntil with a step budget: it executes at most max
// events with timestamps <= t. It returns true when the horizon was
// reached (no events <= t remain; the clock then sits at exactly t) and
// false when the budget ran out first (the clock sits at the last
// executed event). Callers use it to regain control between batches —
// for progress sampling or cancellation checks — without scheduling
// any events of their own, so the event sequence is identical to one
// uninterrupted RunUntil(t).
func (e *Engine) RunUntilN(t Time, max int) bool {
	if e.w != nil {
		for {
			ev := e.wheelNext()
			if ev == nil || ev.at > t {
				if t > e.now {
					e.now = t
				}
				return true
			}
			if max <= 0 {
				return false
			}
			e.wheelPop()
			e.exec(ev)
			max--
		}
	}
	for max > 0 && len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
		max--
	}
	if len(e.heap) == 0 || e.heap[0].at > t {
		if t > e.now {
			e.now = t
		}
		return true
	}
	return false
}

// less orders events by (time, sequence) so simultaneous events fire in
// scheduling order.
func less(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// removeAt detaches the event at heap position i, restoring the heap
// property.
func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	ev := h[i]
	if i != n {
		moved := h[n]
		h[i] = moved
		moved.index = int32(i)
		h[n] = nil
		e.heap = h[:n]
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	} else {
		h[n] = nil
		e.heap = h[:n]
	}
	ev.index = -1
	ev.where = whereDetached
}

// siftUp moves the event at position i toward the root until its parent
// is no larger. The moving event is held in a register and written once.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown moves the event at position i toward the leaves until no child
// is smaller. It reports whether the event moved.
func (e *Engine) siftDown(i int) bool {
	h := e.heap
	n := len(h)
	if i >= n {
		return false
	}
	ev := h[i]
	start := i
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[best]) {
				best = j
			}
		}
		if !less(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].index = int32(i)
		i = best
	}
	h[i] = ev
	ev.index = int32(i)
	return i != start
}
