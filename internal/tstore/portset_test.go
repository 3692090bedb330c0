package tstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"tahoedyn/internal/obs"
)

// mapQueue is the port model the checker had before portQueue became a
// flat table — a Go map of the queued packet ids — kept as the referee
// of the table: same three operations, same return values.
type mapQueue map[uint64]struct{}

func (m mapQueue) has(id uint64) bool { _, ok := m[id]; return ok }

func (m mapQueue) add(id uint64) bool {
	_, was := m[id]
	m[id] = struct{}{}
	return !was
}

func (m mapQueue) remove(id uint64) bool {
	_, was := m[id]
	delete(m, id)
	return was
}

// agrees fails the test unless the table holds exactly the map's ids:
// the same count, every id found, and no slot occupied beyond them.
func (p *portQueue) agrees(t *testing.T, m mapQueue, when string) {
	t.Helper()
	if p.n != len(m) {
		t.Fatalf("%s: table holds %d ids, map %d", when, p.n, len(m))
	}
	for id := range m {
		if !p.has(id) {
			t.Fatalf("%s: id %d is in the map, the table lost it", when, id)
		}
	}
	occupied := 0
	for _, k := range p.keys {
		if k != 0 {
			occupied++
		}
	}
	if p.hasMax {
		occupied++
	}
	if occupied != p.n {
		t.Fatalf("%s: %d slots occupied for %d ids", when, occupied, p.n)
	}
	if 2*p.n > len(p.keys) && p.n > 1 {
		t.Fatalf("%s: %d ids in %d slots, more than half full", when, p.n, len(p.keys))
	}
}

// TestPortQueueAgainstMap drives the flat set and the map with the same
// seeded operations and compares every return value and the size. The
// id ranges change as it goes: a handful of ids (every operation hits),
// thousands (the table grows through many sizes), ids a multiple of a
// large power of two apart (which a multiplicative hash crowds into few
// runs), and the top of the id space, 2⁶⁴−1 — the key that wraps —
// included.
func TestPortQueueAgainstMap(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	rng := rand.New(rand.NewSource(19))
	ranges := []func() uint64{
		func() uint64 { return uint64(rng.Intn(12)) },
		func() uint64 { return uint64(rng.Intn(6000)) },
		func() uint64 { return uint64(rng.Intn(300)) << 52 },
		func() uint64 { return math.MaxUint64 - uint64(rng.Intn(40)) },
		func() uint64 { return rng.Uint64() },
	}
	var p portQueue
	m := mapQueue{}
	for i := 0; i < ops; i++ {
		// A stretch of one range, then the next; stretches lean towards
		// adding or towards removing, so the set swells and drains.
		stretch := i / 5000
		id := ranges[stretch%len(ranges)]()
		grow := stretch/len(ranges)%2 == 0
		var got, want bool
		var op string
		switch k := rng.Intn(10); {
		case k < 2:
			op, got, want = "has", p.has(id), m.has(id)
		case (k < 7) == grow:
			op, got, want = "add", p.add(id), m.add(id)
		default:
			op, got, want = "remove", p.remove(id), m.remove(id)
		}
		if got != want {
			t.Fatalf("operation %d, %s(%d): table says %v, map says %v", i, op, id, got, want)
		}
		if p.n != len(m) {
			t.Fatalf("operation %d, %s(%d): table holds %d ids, map %d", i, op, id, p.n, len(m))
		}
		if i%20000 == 0 {
			p.agrees(t, m, fmt.Sprintf("after operation %d", i))
		}
	}
	p.agrees(t, m, "at the end")
}

// TestPortQueueWrapAroundRuns builds probe runs that start in the last
// slots of the table and continue at slot zero, then removes from the
// front, the middle and the end of them: backward-shift deletion has to
// carry keys across the wrap and must not move one in front of its home.
func TestPortQueueWrapAroundRuns(t *testing.T) {
	for _, size := range []int{8, 16, 64} {
		// Ids whose home is one of the last two slots of a table of this
		// size, found by search; half the table's worth keeps it from
		// growing.
		var p portQueue
		p.keys = make([]uint64, size)
		p.shift = uint(64 - bits.TrailingZeros(uint(size)))
		var ids []uint64
		for id := uint64(0); len(ids) < size/2; id++ {
			if p.home(id+1) >= size-2 {
				ids = append(ids, id)
			}
		}
		for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 2, 0, 3}, {2, 0, 3, 1}} {
			p = portQueue{}
			m := mapQueue{}
			for _, id := range ids {
				if !p.add(id) || !m.add(id) {
					t.Fatalf("size %d: add(%d) found it present", size, id)
				}
			}
			if len(p.keys) != size {
				t.Fatalf("size %d: table has %d slots after %d adds", size, len(p.keys), len(ids))
			}
			if p.keys[0] == 0 {
				t.Fatalf("size %d: %d ids homed in the last two slots did not wrap to slot 0", size, len(ids))
			}
			for _, k := range order {
				id := ids[k*len(ids)/4]
				if got, want := p.remove(id), m.remove(id); got != want {
					t.Fatalf("size %d: remove(%d) = %v, map says %v", size, id, got, want)
				}
				p.agrees(t, m, fmt.Sprintf("size %d, after remove(%d)", size, id))
				if p.remove(id) {
					t.Fatalf("size %d: remove(%d) succeeded twice", size, id)
				}
			}
		}
	}
}

// refCheck is the invariant engine as it was over mapQueue ports: every
// rule, message and Violation field of checkState.check, for one batch
// of events under one location table. The flat-set checker must return
// the Violation this returns, or none when it returns none.
func refCheck(locs []string, events []obs.Event, o CheckOptions) *Violation {
	ports := map[string]mapQueue{}
	lastTimeout := map[int32]float64{}
	var lastT time.Duration
	for i := range events {
		ev := &events[i]
		violate := func(rule, format string, args ...any) *Violation {
			v := &Violation{Rule: rule, Index: uint64(i), Event: *ev, Detail: fmt.Sprintf(format, args...)}
			if int(ev.Loc) < len(locs) {
				v.Loc = locs[ev.Loc]
			}
			return v
		}
		if !o.NoMonotonicTime {
			if ev.T < lastT {
				return violate("monotonic-time", "event time %v precedes previous event time %v", ev.T, lastT)
			}
			lastT = ev.T
		}
		switch ev.Type {
		case obs.Enqueue, obs.Dequeue, obs.Transmit, obs.Drop:
			if o.NoConservation {
				break
			}
			// Ports go by location name; a Loc outside the table is a port
			// of its own, by raw id.
			name, capacity := fmt.Sprintf("stray %d", ev.Loc), 0
			if int(ev.Loc) < len(locs) {
				name, capacity = "named "+locs[ev.Loc], o.Capacity[locs[ev.Loc]]
			}
			p := ports[name]
			if p == nil {
				p = mapQueue{}
				ports[name] = p
			}
			switch ev.Type {
			case obs.Enqueue:
				if !p.add(ev.ID) {
					return violate("conservation", "packet %d enqueued twice without leaving the buffer", ev.ID)
				}
				if int(ev.Val) != len(p) {
					return violate("conservation", "queue length %g after enqueue, conservation implies %d", ev.Val, len(p))
				}
			case obs.Dequeue:
				if !p.has(ev.ID) {
					return violate("causality", "packet %d dequeued but never enqueued here", ev.ID)
				}
				if int(ev.Val) != len(p) {
					return violate("conservation", "queue length %g at dequeue, conservation implies %d", ev.Val, len(p))
				}
			case obs.Transmit:
				if !p.remove(ev.ID) {
					return violate("causality", "packet %d transmitted but never enqueued here", ev.ID)
				}
				if int(ev.Val) != len(p) {
					return violate("conservation", "queue length %g after transmit, conservation implies %d", ev.Val, len(p))
				}
			case obs.Drop:
				queued := p.remove(ev.ID)
				if int(ev.Val) != len(p) {
					return violate("conservation", "queue length %g after drop, conservation implies %d", ev.Val, len(p))
				}
				if !queued && len(p) < capacity {
					return violate("drop-tail-full", "packet %d dropped on arrival at queue length %d, below the buffer of %d", ev.ID, len(p), capacity)
				}
			}
		case obs.Timeout:
			if prev, seen := lastTimeout[ev.Conn]; seen && ev.Val <= prev {
				return violate("timeout-monotonic", "cumulative timeout count %g not above previous %g for conn %d", ev.Val, prev, ev.Conn)
			}
			lastTimeout[ev.Conn] = ev.Val
		case obs.CwndChange:
			if o.NoCwndBounds {
				break
			}
			if ev.Val < 1 {
				return violate("cwnd-bounds", "congestion window %g below one packet", ev.Val)
			}
			if max, ok := o.MaxCwnd[int(ev.Conn)]; ok && ev.Val > max {
				return violate("cwnd-bounds", "congestion window %g above conn %d's bound %g", ev.Val, ev.Conn, max)
			}
		}
	}
	return nil
}

// The fuzz targets' event stream: 13 bytes an event — type, location,
// connection, value, time step (signed, so time may run backwards), and
// the packet id, all eight bytes of it, so the fuzzer reaches 2⁶⁴−1.
// The location table has three names; a location byte of 3 or 4 is a
// stray Loc.
const fuzzEventSize = 13

var fuzzLocs = []string{"sw0->sw1", "sw1->sw0", "h0->sw0"}

func fuzzEvents(data []byte) []obs.Event {
	events := make([]obs.Event, 0, len(data)/fuzzEventSize)
	var at time.Duration
	for ; len(data) >= fuzzEventSize; data = data[fuzzEventSize:] {
		at += time.Duration(int8(data[4])) * time.Millisecond
		events = append(events, obs.Event{
			T:    at,
			Type: obs.Type(data[0] % byte(obs.NumTypes)),
			Loc:  obs.Loc(data[1] % 5),
			Conn: int32(data[2]%4) + 1,
			Val:  float64(int8(data[3])),
			ID:   binary.LittleEndian.Uint64(data[5:]),
		})
	}
	return events
}

// fuzzBytes is the inverse of fuzzEvents for the traces the seeds are
// made of (locations inside the table, small integer values).
func fuzzBytes(events []obs.Event) []byte {
	var data []byte
	var at time.Duration
	for _, ev := range events {
		step := (ev.T - at) / time.Millisecond
		at += step * time.Millisecond
		data = append(data, byte(ev.Type), byte(ev.Loc), byte(ev.Conn-1), byte(int8(ev.Val)), byte(int8(step)))
		data = binary.LittleEndian.AppendUint64(data, ev.ID)
	}
	return data
}

func sameViolation(a, b *Violation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rule == b.Rule && a.Index == b.Index && a.Loc == b.Loc && a.Detail == b.Detail && sameEvent(a.Event, b.Event)
}

// checkAgainstMapModel runs one event stream through the reference, the
// offline Check and the online Checker (fed in two batches) and fails
// unless all three report the same Violation or none.
func checkAgainstMapModel(t *testing.T, events []obs.Event, o CheckOptions) {
	t.Helper()
	want := refCheck(fuzzLocs, events, o)
	checked, got, err := Check(&SliceSource{LocTable: fuzzLocs, Events: events}, o)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !sameViolation(got, want) {
		t.Fatalf("offline check reports %v, the map model %v", got, want)
	}
	if want == nil && checked != uint64(len(events)) {
		t.Fatalf("offline check passed %d of %d events", checked, len(events))
	}
	c := NewChecker(nil, o)
	half := len(events) / 2
	if err := c.Events(fuzzLocs, events[:half]); err == nil {
		c.Events(fuzzLocs, events[half:])
	}
	if got := c.Violation(); !sameViolation(got, want) {
		t.Fatalf("online checker reports %v, the map model %v", got, want)
	}
}

// checkerSeeds are event streams the checker tests already use — a clean
// synthetic trace and the corruptions of TestInvariantViolations — plus
// hand-made ones around the ids 0, 2⁶⁴−2 and 2⁶⁴−1, duplicate enqueues,
// transmits before any enqueue, evictions and stray locations.
func checkerSeeds() [][]obs.Event {
	_, clean := synthTrace(400, 3, 4, 8)
	mutated := func(f func([]obs.Event)) []obs.Event {
		evs := append([]obs.Event(nil), clean...)
		f(evs)
		return evs
	}
	enq := 0
	for i, ev := range clean {
		if ev.Type == obs.Enqueue && i > 100 {
			enq = i
			break
		}
	}
	const top = math.MaxUint64
	at := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	return [][]obs.Event{
		clean,
		mutated(func(evs []obs.Event) { evs[enq].Val += 3 }),
		mutated(func(evs []obs.Event) { evs[enq].Type, evs[enq].ID = obs.Transmit, 1<<60 }),
		mutated(func(evs []obs.Event) { evs[enq].T = evs[enq-1].T - 100*time.Millisecond }),
		mutated(func(evs []obs.Event) { evs[enq] = obs.Event{T: evs[enq].T, Type: obs.CwndChange, Conn: 1, Val: 0} }),
		mutated(func(evs []obs.Event) { evs[enq] = obs.Event{T: evs[enq].T, Type: obs.CwndChange, Conn: 1, Val: 100} }),
		mutated(func(evs []obs.Event) {
			evs[enq-1] = obs.Event{T: evs[enq-1].T, Type: obs.Timeout, Conn: 2, Val: 5}
			evs[enq] = obs.Event{T: evs[enq].T, Type: obs.Timeout, Conn: 2, Val: 5}
		}),
		{ // the three edge ids queued together, then leaving in another order
			{T: at(0), Type: obs.Enqueue, Conn: 1, ID: top, Val: 1},
			{T: at(1), Type: obs.Enqueue, Conn: 1, ID: 0, Val: 2},
			{T: at(2), Type: obs.Enqueue, Conn: 1, ID: top - 1, Val: 3},
			{T: at(3), Type: obs.Dequeue, Conn: 1, ID: top, Val: 3},
			{T: at(4), Type: obs.Transmit, Conn: 1, ID: top, Val: 2},
			{T: at(5), Type: obs.Transmit, Conn: 1, ID: 0, Val: 1},
			{T: at(6), Type: obs.Transmit, Conn: 1, ID: top - 1, Val: 0},
			{T: at(7), Type: obs.Transmit, Conn: 1, ID: top, Val: 0},
		},
		{ // 2⁶⁴−1 enqueued twice
			{T: at(0), Type: obs.Enqueue, Conn: 1, ID: top, Val: 1},
			{T: at(1), Type: obs.Enqueue, Conn: 1, ID: top, Val: 2},
		},
		{ // transmit and dequeue before any enqueue, at a stray location
			{T: at(0), Type: obs.Drop, Loc: 4, Conn: 2, ID: top, Val: 0},
			{T: at(1), Type: obs.Dequeue, Loc: 4, Conn: 2, ID: top, Val: 0},
		},
		{ // an eviction: the victim is in the buffer and leaves it
			{T: at(0), Type: obs.Enqueue, Loc: 1, Conn: 1, ID: 7, Val: 1},
			{T: at(1), Type: obs.Enqueue, Loc: 1, Conn: 2, ID: 8, Val: 2},
			{T: at(2), Type: obs.Drop, Loc: 1, Conn: 1, ID: 7, Val: 1},
			{T: at(3), Type: obs.Drop, Loc: 1, Conn: 3, ID: 9, Val: 1},
			{T: at(4), Type: obs.Transmit, Loc: 1, Conn: 1, ID: 7, Val: 0},
		},
		{ // the same id at two named ports and a stray one
			{T: at(0), Type: obs.Enqueue, Loc: 0, Conn: 1, ID: 5, Val: 1},
			{T: at(1), Type: obs.Enqueue, Loc: 2, Conn: 1, ID: 5, Val: 1},
			{T: at(2), Type: obs.Enqueue, Loc: 3, Conn: 1, ID: 5, Val: 1},
			{T: at(3), Type: obs.Enqueue, Loc: 3, Conn: 1, ID: 5, Val: 2},
		},
	}
}

var fuzzCheckOptions = []CheckOptions{
	{MaxCwnd: map[int]float64{1: 64}},
	{NoMonotonicTime: true},
	{NoMonotonicTime: true, NoCwndBounds: true},
	{NoConservation: true},
	{Capacity: map[string]int{"sw0->sw1": 2, "h0->sw0": 1}},
}

// TestCheckerAgainstMapModel runs the fuzz seeds under every option set
// in tier-1, and holds the seeds to their purpose: the first is clean,
// every other one still breaks a rule after the trip through the fuzz
// encoding.
func TestCheckerAgainstMapModel(t *testing.T) {
	for i, seed := range checkerSeeds() {
		events := fuzzEvents(fuzzBytes(seed))
		for _, o := range fuzzCheckOptions {
			checkAgainstMapModel(t, events, o)
		}
		if vio := refCheck(fuzzLocs, events, fuzzCheckOptions[0]); (vio == nil) != (i == 0) {
			t.Errorf("seed %d: the map model reports %v", i, vio)
		}
	}
}

// FuzzCheckerAgainstMapModel feeds arbitrary event streams to the
// flat-set checker and to the map model it replaced: the same Violation
// — rule, index, detail — or none from both.
func FuzzCheckerAgainstMapModel(f *testing.F) {
	for i, events := range checkerSeeds() {
		f.Add(byte(i), fuzzBytes(events))
	}
	f.Fuzz(func(t *testing.T, opts byte, data []byte) {
		checkAgainstMapModel(t, fuzzEvents(data), fuzzCheckOptions[int(opts)%len(fuzzCheckOptions)])
	})
}
