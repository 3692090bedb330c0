package tstore

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"tahoedyn/internal/obs"
)

// Violation describes the first invariant breach found in a trace,
// pinpointing the offending event. It implements error.
type Violation struct {
	// Rule names the invariant: "monotonic-time", "conservation",
	// "causality", "drop-tail-full", "cwnd-bounds", "timeout-monotonic".
	Rule string
	// Index is the 0-based position of the event in the checked stream.
	Index uint64
	// Loc is the resolved location name of the event, when known.
	Loc string
	// Event is the offending event itself.
	Event obs.Event
	// Detail explains what was expected and what was seen.
	Detail string
}

func (v *Violation) Error() string {
	loc := v.Loc
	if loc == "" {
		loc = fmt.Sprintf("loc%d", v.Event.Loc)
	}
	return fmt.Sprintf("tstore: invariant %q violated by event %d (t=%v type=%v loc=%s conn=%d id=%d val=%g): %s",
		v.Rule, v.Index, v.Event.T, v.Event.Type, loc, v.Event.Conn, v.Event.ID, v.Event.Val, v.Detail)
}

// CheckOptions selects which invariants run and supplies their bounds.
// The zero value checks everything checkable without configuration
// (conservation, causality, monotonic time, timeout monotonicity, and
// the cwnd lower bound).
type CheckOptions struct {
	// MaxCwnd bounds each connection's congestion window (packets),
	// keyed by 1-based connection id. Connections without an entry are
	// only checked against the lower bound of one packet.
	MaxCwnd map[int]float64
	// Capacity gives drop-tail ports' buffers in packets, the packet in
	// service included, keyed by location name. Such a port drops an
	// arriving packet only when its buffer is full (rule
	// "drop-tail-full"); a port that also drops for another reason — a
	// queue discipline, a lossy line — must not be listed.
	Capacity map[string]int
	// NoConservation disables the per-port packet-conservation,
	// causality and drop-tail rules. Required for partial traces — a
	// filtered or windowed capture starts mid-run with queues already
	// occupied, so conservation cannot hold.
	NoConservation bool
	// NoMonotonicTime disables the global event-time ordering rule.
	NoMonotonicTime bool
	// NoCwndBounds disables the congestion-window bounds rule.
	NoCwndBounds bool
}

// portQueue models one port's buffer from its event stream: the set of
// enqueued packet ids, whose size is the implied queue length. The id
// set is what disambiguates a Random-Drop/FQ eviction (victim is in the
// buffer) from an arrival drop (victim never entered), and catches
// causality breaks (transmitting a packet that was never enqueued).
//
// The set is an open-addressed table, not a Go map (every port event is
// one set operation, and the map's upkeep was three quarters of the
// checker's time): keys is a power of two at most half full, a slot
// holds id+1 so zero is empty, probing is linear from a multiplicative
// hash, and a removal shifts the rest of its probe run back — no
// tombstones. Id 2⁶⁴−1, whose key would wrap to the empty marker (a file
// read offline may hold it), is carried in hasMax. The table grows to
// the longest queue the port has held and never shrinks.
type portQueue struct {
	keys     []uint64
	shift    uint // 64 − log₂ len(keys)
	n        int  // ids held, the one in hasMax included
	hasMax   bool
	capacity int // CheckOptions.Capacity's entry; 0: none
}

// home is the slot key's probe starts at: a Fibonacci hash.
func (p *portQueue) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> p.shift) }

// slot returns the index of key's slot: the one holding it, or the
// empty one where the probe for it ends. The table is never full.
func (p *portQueue) slot(key uint64) int {
	mask := len(p.keys) - 1
	for i := p.home(key); ; i = (i + 1) & mask {
		if k := p.keys[i]; k == key || k == 0 {
			return i
		}
	}
}

// has reports whether id is in the set.
func (p *portQueue) has(id uint64) bool {
	key := id + 1
	if key == 0 {
		return p.hasMax
	}
	return len(p.keys) != 0 && p.keys[p.slot(key)] == key
}

// add puts id into the set and reports whether it was absent.
func (p *portQueue) add(id uint64) bool {
	key := id + 1
	if key == 0 {
		if p.hasMax {
			return false
		}
		p.hasMax = true
		p.n++
		return true
	}
	if 2*(p.n+1) > len(p.keys) {
		old := p.keys
		p.keys = make([]uint64, max(8, 2*len(old)))
		p.shift = uint(64 - bits.TrailingZeros(uint(len(p.keys))))
		for _, k := range old {
			if k != 0 {
				p.keys[p.slot(k)] = k
			}
		}
	}
	i := p.slot(key)
	if p.keys[i] == key {
		return false
	}
	p.keys[i] = key
	p.n++
	return true
}

// remove takes id out of the set and reports whether it was present.
func (p *portQueue) remove(id uint64) bool {
	key := id + 1
	if key == 0 {
		if !p.hasMax {
			return false
		}
		p.hasMax = false
		p.n--
		return true
	}
	if len(p.keys) == 0 {
		return false
	}
	i := p.slot(key)
	if p.keys[i] != key {
		return false
	}
	// Close the gap: a later key of the run moves back into the hole
	// when the hole is on its probe path, no further back than its home.
	mask := len(p.keys) - 1
	for j := (i + 1) & mask; p.keys[j] != 0; j = (j + 1) & mask {
		if (j-p.home(p.keys[j]))&mask >= (j-i)&mask {
			p.keys[i] = p.keys[j]
			i = j
		}
	}
	p.keys[i] = 0
	p.n--
	return true
}

// checkState is the streaming invariant engine shared by the online
// sink (Checker) and the offline pass (Check). Memory is O(longest
// queue of each port + connections), independent of trace length.
//
// Ports are keyed by interned location NAME, not by the raw Loc id:
// every batch carries its emitting run's own location table, and in a
// sharded run each region's tracer numbers its locations independently
// — the same id means different ports in different regions' batches.
type checkState struct {
	o CheckOptions
	// ports is indexed by interned location id. stray holds the ports of
	// events whose Loc is outside their batch's table (never produced by
	// a tracer), keyed by that raw id.
	ports       []portQueue
	stray       map[obs.Loc]*portQueue
	lastT       time.Duration
	lastTimeout map[int32]float64
	idx         uint64

	// Location interning, mirroring the store writer's: remap caches the
	// current batch table → stable id mapping.
	locIndex map[string]int
	remap    []int
	remapFor []string
}

func newCheckState(o CheckOptions) *checkState {
	return &checkState{
		o:           o,
		lastTimeout: map[int32]float64{},
		locIndex:    map[string]int{},
	}
}

// setLocs refreshes the batch-table remap. The fast path — same backing
// array and length as the previous batch — is two compares.
func (cs *checkState) setLocs(locs []string) {
	if len(locs) == len(cs.remapFor) {
		same := len(locs) == 0 || &locs[0] == &cs.remapFor[0]
		if !same {
			same = true
			for i := range locs {
				if locs[i] != cs.remapFor[i] {
					same = false
					break
				}
			}
		}
		if same {
			return
		}
	}
	if cap(cs.remap) < len(locs) {
		cs.remap = make([]int, len(locs))
	}
	cs.remap = cs.remap[:len(locs)]
	for i, name := range locs {
		id, ok := cs.locIndex[name]
		if !ok {
			id = len(cs.locIndex)
			cs.locIndex[name] = id
			cs.ports = append(cs.ports, portQueue{capacity: cs.o.Capacity[name]})
		}
		cs.remap[i] = id
	}
	cs.remapFor = locs
}

// port returns the buffer model of the port an event of the current
// batch happened at; the pointer is good until the next setLocs.
func (cs *checkState) port(ev *obs.Event) *portQueue {
	if int(ev.Loc) < len(cs.remap) {
		return &cs.ports[cs.remap[ev.Loc]]
	}
	p := cs.stray[ev.Loc]
	if p == nil {
		if cs.stray == nil {
			cs.stray = map[obs.Loc]*portQueue{}
		}
		p = &portQueue{}
		cs.stray[ev.Loc] = p
	}
	return p
}

// violate builds a Violation for the current event.
func (cs *checkState) violate(ev *obs.Event, locs []string, rule, format string, args ...any) *Violation {
	loc := ""
	if int(ev.Loc) < len(locs) {
		loc = locs[ev.Loc]
	}
	return &Violation{
		Rule:   rule,
		Index:  cs.idx,
		Loc:    loc,
		Event:  *ev,
		Detail: fmt.Sprintf(format, args...),
	}
}

// check runs one event through every enabled rule; non-nil means the
// trace is invalid and checking stops. locs is the emitting table for
// name resolution in the report.
func (cs *checkState) check(ev *obs.Event, locs []string) *Violation {
	if !cs.o.NoMonotonicTime {
		if ev.T < cs.lastT {
			return cs.violate(ev, locs, "monotonic-time",
				"event time %v precedes previous event time %v", ev.T, cs.lastT)
		}
		cs.lastT = ev.T
	}

	switch ev.Type {
	case obs.Enqueue, obs.Dequeue, obs.Transmit, obs.Drop:
		if !cs.o.NoConservation {
			if v := cs.checkPort(ev, locs); v != nil {
				return v
			}
		}
	case obs.Timeout:
		prev, seen := cs.lastTimeout[ev.Conn]
		if seen && ev.Val <= prev {
			return cs.violate(ev, locs, "timeout-monotonic",
				"cumulative timeout count %g not above previous %g for conn %d", ev.Val, prev, ev.Conn)
		}
		cs.lastTimeout[ev.Conn] = ev.Val
	case obs.CwndChange:
		if !cs.o.NoCwndBounds {
			if ev.Val < 1 {
				return cs.violate(ev, locs, "cwnd-bounds",
					"congestion window %g below one packet", ev.Val)
			}
			if max, ok := cs.o.MaxCwnd[int(ev.Conn)]; ok && ev.Val > max {
				return cs.violate(ev, locs, "cwnd-bounds",
					"congestion window %g above conn %d's bound %g", ev.Val, ev.Conn, max)
			}
		}
	}
	cs.idx++
	return nil
}

// checkPort applies conservation and causality at one port. Event Val
// semantics (pinned by internal/link/port.go): Enqueue reports the
// queue length after the arrival, Dequeue leaves it unchanged (the
// in-service packet still counts), Transmit reports it after the
// departure, Drop after the victim's removal — which for an arrival
// drop removes nothing. At a port with a capacity an arrival drop must
// find the buffer full.
func (cs *checkState) checkPort(ev *obs.Event, locs []string) *Violation {
	// One set operation per event; it reports whether the packet was queued.
	p := cs.port(ev)
	switch ev.Type {
	case obs.Enqueue:
		if !p.add(ev.ID) {
			return cs.violate(ev, locs, "conservation",
				"packet %d enqueued twice without leaving the buffer", ev.ID)
		}
		if int(ev.Val) != p.n {
			return cs.violate(ev, locs, "conservation",
				"queue length %g after enqueue, conservation implies %d", ev.Val, p.n)
		}
	case obs.Dequeue:
		if !p.has(ev.ID) {
			return cs.violate(ev, locs, "causality",
				"packet %d dequeued but never enqueued here", ev.ID)
		}
		if int(ev.Val) != p.n {
			return cs.violate(ev, locs, "conservation",
				"queue length %g at dequeue, conservation implies %d", ev.Val, p.n)
		}
	case obs.Transmit:
		if !p.remove(ev.ID) {
			return cs.violate(ev, locs, "causality",
				"packet %d transmitted but never enqueued here", ev.ID)
		}
		if int(ev.Val) != p.n {
			return cs.violate(ev, locs, "conservation",
				"queue length %g after transmit, conservation implies %d", ev.Val, p.n)
		}
	case obs.Drop:
		// A queued victim is an eviction (Random Drop, FQ longest-flow)
		// and leaves the buffer; an arrival drop's victim never entered,
		// and the queue is unchanged.
		queued := p.remove(ev.ID)
		if int(ev.Val) != p.n {
			return cs.violate(ev, locs, "conservation",
				"queue length %g after drop, conservation implies %d", ev.Val, p.n)
		}
		if !queued && p.n < p.capacity {
			return cs.violate(ev, locs, "drop-tail-full",
				"packet %d dropped on arrival at queue length %d, below the buffer of %d", ev.ID, p.n, p.capacity)
		}
	}
	return nil
}

// Checker is an obs.Sink that verifies invariants online, during the
// run, forwarding every batch to an optional inner sink (so checking
// composes with tracing to disk). On the first violation the checker
// reports it as the sink error — the tracer goes quiet and the run
// completes, with the Violation surfacing through Result.TraceErr and
// Result.Invariant. The physics of the run are untouched: a checker
// only observes.
type Checker struct {
	mu    sync.Mutex
	inner obs.Sink
	cs    *checkState
	vio   *Violation
}

// NewChecker returns an online invariant checker forwarding to inner
// (which may be nil to only check).
func NewChecker(inner obs.Sink, o CheckOptions) *Checker {
	return &Checker{inner: inner, cs: newCheckState(o)}
}

// Begin forwards to the inner sink.
func (c *Checker) Begin() error {
	if c.inner != nil {
		return c.inner.Begin()
	}
	return nil
}

// Events forwards the batch, then checks it. The batch is forwarded
// first so that when a violation aborts tracing, the offending event
// is still present in the stored trace for inspection.
func (c *Checker) Events(locs []string, events []obs.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var innerErr error
	if c.inner != nil {
		innerErr = c.inner.Events(locs, events)
	}
	if c.vio == nil {
		c.cs.setLocs(locs)
		for i := range events {
			if v := c.cs.check(&events[i], locs); v != nil {
				c.vio = v
				return v
			}
		}
	}
	return innerErr
}

// Close forwards to the inner sink.
func (c *Checker) Close() error {
	if c.inner != nil {
		return c.inner.Close()
	}
	return nil
}

// Violation returns the first breach found, or nil for a clean trace
// so far.
func (c *Checker) Violation() *Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vio
}

// EventsChecked returns how many events passed the checker cleanly.
func (c *Checker) EventsChecked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cs.idx
}

// Check runs the invariant engine offline over a stored or in-memory
// trace, streaming one chunk at a time. It returns the number of
// events that passed and the first Violation, or a scan error.
func Check(sc Scanner, o CheckOptions) (uint64, *Violation, error) {
	cs := newCheckState(o)
	locs := sc.Locs()
	cs.setLocs(locs)
	var vio *Violation
	// From is unbounded below: a corrupted negative timestamp must reach
	// the checker, not be filtered out by the default [0, ∞) window.
	q := Query{From: time.Duration(math.MinInt64)}
	// No rule reads a packet's kind, sequence number or size.
	err := fold(sc, q, colAll&^(colKind|colSeq|colSize), func(ev *obs.Event) error {
		if v := cs.check(ev, locs); v != nil {
			vio = v
			return ErrStop
		}
		return nil
	})
	if err != nil {
		return cs.idx, nil, err
	}
	if s, ok := sc.(*Store); ok && vio != nil {
		// Report the offending event whole: fetch it again with the
		// columns the fold left out.
		i := uint64(0)
		err = s.Scan(q, func(ev *obs.Event) error {
			if i++; i <= vio.Index {
				return nil
			}
			vio.Event = *ev
			return ErrStop
		})
		if err != nil {
			return cs.idx, nil, err
		}
	}
	return cs.idx, vio, nil
}
