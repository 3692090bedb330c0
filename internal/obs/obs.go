// Package obs is the simulator's observability layer: structured packet
// tracing, per-run metrics, and progress sampling. It exists so the
// packet-level dynamics the paper was discovered from — ACK trains
// compressing, queues locking in and out of phase — can be watched while
// a run executes instead of reconstructed from post-hoc aggregates.
//
// The layer is strictly passive and strictly pay-for-what-you-use:
//
//   - A nil *Tracer, nil *Histogram, or nil *Progress is a valid,
//     disabled instrument; every emit method no-ops on a nil receiver.
//     With observability disabled the hot path pays one nil check per
//     site and allocates nothing (TestSteadyStateAllocs pins this).
//   - Observation never perturbs the physics. Tracing and metrics hang
//     off hooks that already fire; progress sampling batches the engine
//     loop without scheduling events. A run with observability on is
//     byte-identical to the same run with it off (the identity tests in
//     core pin this).
//
// Event streams leave the tracer through pluggable Sinks: the chunked
// trace store (internal/tstore) writes them to disk, where tahoe-query
// reads them, and MemorySink keeps them in memory for tests. See
// DESIGN.md §10 for the event taxonomy and the sink contract.
package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tahoedyn/internal/packet"
)

// Type classifies one packet-lifecycle event.
type Type uint8

// The event taxonomy. Enqueue through Deliver are packet events and
// carry the packet's identity; Timeout and CwndChange are value events
// keyed by connection only.
const (
	// Enqueue: a port accepted an arriving packet into its buffer.
	// Val is the queue length after the arrival.
	Enqueue Type = iota
	// Dequeue: a packet reached the head of a port's queue and began
	// serializing onto the line. Val is the queue length at that moment.
	Dequeue
	// Transmit: a packet's last bit left a port (propagation begins).
	// Val is the queue length after the departure.
	Transmit
	// Drop: a port discarded a packet (drop-tail, Random Drop eviction,
	// or fair-queueing longest-flow drop). Val is the queue length.
	Drop
	// Deliver: a packet arrived at its terminal host.
	Deliver
	// Timeout: a sender's retransmission timer fired with data
	// outstanding. Val is the cumulative timeout count.
	Timeout
	// CwndChange: a sender's congestion window changed. Val is the new
	// window in packets.
	CwndChange

	numTypes
)

// NumTypes is the number of event types — the exclusive upper bound of
// the Type space, exported for format validators (a decoded type byte
// must be < NumTypes).
const NumTypes = int(numTypes)

// typeNames are the wire spellings of the event taxonomy, in Type order.
var typeNames = [numTypes]string{
	"enqueue", "dequeue", "transmit", "drop", "deliver", "timeout", "cwnd",
}

// String returns the wire spelling ("enqueue", "drop", "cwnd", ...).
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType resolves a wire spelling back to a Type.
func ParseType(s string) (Type, error) {
	for i, n := range typeNames {
		if n == s {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event type %q", s)
}

// PacketEvent reports whether events of this type carry packet identity
// (kind, seq, size, id) rather than just a connection and a value.
func (t Type) PacketEvent() bool { return t <= Deliver }

// Loc identifies a network location (a port, a host, a connection
// endpoint) in the trace. Locations are interned per run by Tracer.Loc;
// sinks resolve them back to names.
type Loc uint16

// Event is one structured trace record. The layout is fixed-size and
// pointer-free so a run's ring buffer is a single allocation.
type Event struct {
	// T is the simulated time of the event.
	T time.Duration
	// Val is the type-dependent measurement: queue length for port
	// events, the new window for CwndChange, the cumulative timeout
	// count for Timeout, 0 for Deliver.
	Val float64
	// ID is the packet's unique identifier; 0 for value events.
	ID uint64
	// Conn is the 1-based connection the event belongs to.
	Conn int32
	// Seq and Size are the packet's sequence number and byte size;
	// 0 for value events.
	Seq, Size int32
	// Loc is the interned location the event happened at.
	Loc Loc
	// Type classifies the event.
	Type Type
	// Kind is the packet kind (data or ACK); meaningful only when
	// Type.PacketEvent() is true.
	Kind packet.Kind
}

// Filter selects the subset of events a tracer records. The zero Filter
// matches everything.
type Filter struct {
	// Conn, when nonzero, matches only that 1-based connection.
	Conn int
	// Types, when nonzero, is a bitmask of 1<<Type to match.
	Types uint32
}

// Match reports whether an event of the given type and connection
// passes the filter.
func (f Filter) Match(typ Type, conn int) bool {
	return (f.Types == 0 || f.Types&(1<<typ) != 0) &&
		(f.Conn == 0 || conn == f.Conn)
}

// ParseFilter parses the CLI filter syntax: comma-separated key=value
// pairs, where key is "conn" (a 1-based connection number) or "type"
// (one or more event-type names joined with "|"). Repeated keys union
// for type and overwrite for conn. Example: "conn=2,type=drop|timeout".
func ParseFilter(s string) (Filter, error) {
	var f Filter
	if s == "" {
		return f, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return f, fmt.Errorf("obs: bad filter term %q (want key=value)", part)
		}
		switch key {
		case "conn":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return f, fmt.Errorf("obs: bad filter conn %q (want a positive integer)", val)
			}
			f.Conn = n
		case "type":
			for _, name := range strings.Split(val, "|") {
				t, err := ParseType(strings.TrimSpace(name))
				if err != nil {
					return f, err
				}
				f.Types |= 1 << t
			}
		default:
			return f, fmt.Errorf("obs: unknown filter key %q (want conn or type)", key)
		}
	}
	return f, nil
}

// TraceOptions configures one run's event tracer.
type TraceOptions struct {
	// Sink receives the event batches. Required.
	Sink Sink
	// Filter restricts which events are recorded; the zero value keeps
	// everything.
	Filter Filter
	// RingSize is the number of events buffered before a flush to the
	// sink; 0 means 4096. Smaller rings flush more often, so a sink
	// sees a run's events sooner.
	RingSize int
}

// Options enables observability for one run. A nil *Options (the
// default everywhere) disables the whole layer.
type Options struct {
	// Trace, when non-nil, records packet-lifecycle events to its sink.
	Trace *TraceOptions
	// Metrics, when true, registers per-run counters, gauges, and
	// histograms and exports them on Result.Metrics.
	Metrics bool
	// Progress, when non-nil, samples the run as it executes.
	Progress *Progress
}

// Tracer records structured events into a preallocated ring buffer and
// hands them to its sink in batches. A nil *Tracer is disabled: every
// emit no-ops. Tracers are single-run objects driven by one goroutine,
// like the engine they observe; only the Sink may be shared across runs.
//
// A tracer with two rings overlaps the sink with the simulation: a full
// ring goes to the sink on another goroutine while recording continues in
// the other, one batch out at a time, so the sink sees an inline tracer's
// calls (DESIGN.md §10). Flush, Close and Err are join points — no sink
// call running, the goroutine ended — and a tracer must reach one.
type Tracer struct {
	filter Filter
	slab   []Event // the ring, or both rings: what Ring returns
	buf    []Event // the ring being filled
	n      int
	sink   Sink
	locs   []string
	locIDs map[string]Loc
	began  bool
	err    error

	// The hand-off; nil/zero on an inline tracer. A batch (of spare, the
	// ring not being filled) goes to serve's goroutine through work and is
	// the sink's until its result comes back through done; the zero batch
	// sends the goroutine home.
	spare   []Event
	work    chan batch
	done    chan error
	out     bool   // a batch is at the sink, its result not yet taken
	serving bool   // a goroutine is in serve
	serveFn func() // the method value t.serve: a go statement on it allocates nothing
	stats   TraceStats
}

// batch is one Events call's arguments.
type batch struct {
	locs   []string
	events []Event
}

// TraceStats says how much a tracer delivered and whether its sink kept
// up. Events and Batches (what was handed to the sink) depend on the run
// alone; SinkWaits and SinkWait — how often, and for how long in all, the
// tracer stood at a hand-off or join because the previous batch was still
// out — are wall-clock facts of one execution, zero on an inline tracer.
type TraceStats struct {
	Events, Batches uint64
	SinkWaits       uint64
	SinkWait        time.Duration
}

// maxLocs is the number of locations one tracer can tell apart: Loc is
// 16 bits wide.
const maxLocs = 1 << 16

// NewTracer returns a tracer overlapping the options' sink with its caller.
func NewTracer(o TraceOptions) *Tracer {
	return NewTracerReusing(o, nil, true)
}

// NewTracerReusing is NewTracer with a caller-supplied slab for the
// rings — two of RingSize events when overlap is set, one when batches
// are to be delivered inline (a sink that only appends, like a sharded
// run's merge buffers, gains nothing from a goroutine) — adopted when
// cap(slab) covers them. It is the arena-reuse hook (core.Arena): the
// caller must own the slab exclusively, which in practice means it came
// from Ring() of a tracer whose run has finished.
func NewTracerReusing(o TraceOptions, slab []Event, overlap bool) *Tracer {
	if o.Sink == nil {
		panic("obs: TraceOptions.Sink is required")
	}
	n := o.RingSize
	if n <= 0 {
		n = 4096
	}
	rings := 1
	if overlap {
		rings = 2
	}
	if cap(slab) < rings*n {
		slab = make([]Event, rings*n)
	}
	t := &Tracer{filter: o.Filter, slab: slab, buf: slab[:n], sink: o.Sink}
	if overlap {
		t.spare = slab[n : 2*n]
		t.work, t.done = make(chan batch, 1), make(chan error, 1)
		t.serveFn = t.serve
	}
	return t
}

// Ring returns the tracer's backing slab (both rings, if it has two) for
// an arena to hand to the next run's tracer, once this run has finished.
func (t *Tracer) Ring() []Event {
	if t == nil {
		return nil
	}
	return t.slab
}

// Loc interns a location name, returning its stable id. Interning
// happens at build time (ports, hosts, and connections are created
// before the first event), so the emit path never touches strings. A
// run with more than 65 536 locations cannot be traced — a further id
// would alias an earlier one: the tracer fails instead (Err reports it,
// and core.BuildE refuses the run) and records nothing.
func (t *Tracer) Loc(name string) Loc {
	if t == nil {
		return 0
	}
	if id, ok := t.locIDs[name]; ok {
		return id
	}
	if len(t.locs) == maxLocs {
		if t.err == nil {
			t.err = fmt.Errorf("obs: a traced run is limited to %d locations (ports, hosts and connections); %q is one too many", maxLocs, name)
		}
		return 0
	}
	if t.locIDs == nil {
		t.locIDs = make(map[string]Loc)
	}
	id := Loc(len(t.locs))
	t.locs = append(t.locs, name)
	t.locIDs[name] = id
	return id
}

// Packet records a packet-lifecycle event. Nil-receiver safe; callers
// on the hot path should still branch on the tracer pointer so argument
// evaluation is skipped when tracing is off.
func (t *Tracer) Packet(typ Type, now time.Duration, loc Loc, p *packet.Packet, val float64) {
	if t == nil || !t.filter.Match(typ, p.Conn) {
		return
	}
	t.push(Event{
		T: now, Val: val, ID: p.ID, Conn: int32(p.Conn),
		Seq: int32(p.Seq), Size: int32(p.Size),
		Loc: loc, Type: typ, Kind: p.Kind,
	})
}

// Value records a value event (Timeout, CwndChange) for a connection.
func (t *Tracer) Value(typ Type, now time.Duration, loc Loc, conn int, val float64) {
	if t == nil || !t.filter.Match(typ, conn) {
		return
	}
	t.push(Event{T: now, Val: val, Conn: int32(conn), Loc: loc, Type: typ})
}

// push appends to the ring, handing it off when it fills. After a sink
// error the tracer goes quiet rather than failing the run; Err surfaces
// the first error.
func (t *Tracer) push(ev Event) {
	if t.err != nil {
		return
	}
	t.buf[t.n] = ev
	t.n++
	if t.n == len(t.buf) {
		t.flushBatch(t.done != nil)
	}
}

// flushBatch delivers the ring's events: on the tracer's goroutine when
// handOff is set, inline otherwise. Either way the batch before it has
// returned first, and if that one failed this one is dropped: the events
// an inline tracer, silenced by the error at once, never recorded.
func (t *Tracer) flushBatch(handOff bool) {
	t.wait()
	if t.err == nil && !t.began {
		t.began = true
		t.err = t.sink.Begin()
	}
	events := t.buf[:t.n]
	t.n = 0
	if t.err != nil || len(events) == 0 {
		return
	}
	t.stats.Events += uint64(len(events))
	t.stats.Batches++
	if !handOff {
		t.err = t.sink.Events(t.locs, events)
		return
	}
	if !t.serving {
		t.serving = true
		go t.serveFn()
	}
	// locs is only appended to: the sink reads the prefix it is given here.
	t.work <- batch{t.locs, events}
	t.out = true
	t.buf, t.spare = t.spare, t.buf
}

// serve is the tracer's goroutine from one join point to the next. It
// says when it ends and the join waits for that, or a caller stepping a
// run on one processor would pile up goroutines not yet scheduled to end.
func (t *Tracer) serve() {
	for b := <-t.work; b.events != nil; b = <-t.work {
		t.done <- t.sink.Events(b.locs, b.events)
	}
	t.done <- nil
}

// wait returns once no batch is at the sink, with the result of the last.
func (t *Tracer) wait() {
	if !t.out {
		return
	}
	t.out = false
	var err error
	select {
	case err = <-t.done:
	default:
		t0 := time.Now()
		err = <-t.done
		t.stats.SinkWaits++
		t.stats.SinkWait += time.Since(t0)
	}
	if t.err == nil {
		t.err = err
	}
}

// join is wait, then the goroutine is sent home and seen off.
func (t *Tracer) join() {
	t.wait()
	if t.serving {
		t.serving = false
		t.work <- batch{}
		<-t.done
	}
}

// Flush drains the ring to the sink, inline, after the batch that may be
// out has returned, and returns the first error the sink ever reported.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.flushBatch(false)
	t.join()
	return t.err
}

// Close flushes and closes the sink. The run owns the sink lifecycle:
// Begin, zero or more Events batches, Close.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Flush()
	if cerr := t.sink.Close(); err == nil {
		err = cerr
	}
	if t.err == nil {
		t.err = err
	}
	return err
}

// Err returns the first sink error, if any, after waiting for the batch
// that may still be at the sink: the join point that does not flush. The
// tracer stops recording after an error; the simulation is never
// interrupted.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.join()
	return t.err
}

// Stats returns the tracer's delivery counters so far.
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	return t.stats
}
