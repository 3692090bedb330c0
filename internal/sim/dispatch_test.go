package sim

import (
	"testing"
	"time"

	"tahoedyn/internal/packet"
)

// collectSink records delivered packets and the times they arrived.
type collectSink struct {
	pkts  []*packet.Packet
	times []Time
	eng   *Engine
}

func (s *collectSink) Deliver(p *packet.Packet) {
	s.pkts = append(s.pkts, p)
	s.times = append(s.times, s.eng.Now())
}

func TestSchedulePacketDelivers(t *testing.T) {
	eng := New()
	s := &collectSink{eng: eng}
	a := &packet.Packet{ID: 1}
	b := &packet.Packet{ID: 2}
	eng.SchedulePacket(2*time.Second, s, a)
	eng.SchedulePacket(1*time.Second, s, b)
	eng.Run()
	if len(s.pkts) != 2 || s.pkts[0] != b || s.pkts[1] != a {
		t.Fatalf("delivery order wrong: %v", s.pkts)
	}
	if s.times[0] != 1*time.Second || s.times[1] != 2*time.Second {
		t.Fatalf("delivery times = %v", s.times)
	}
}

// Typed and plain events share one sequence counter, so simultaneous
// events of either kind fire in scheduling order.
func TestSchedulePacketInterleavesWithScheduleInOrder(t *testing.T) {
	eng := New()
	var order []int
	eng.Schedule(time.Second, func() { order = append(order, 0) })
	eng.SchedulePacket(time.Second, sinkFunc(func(*packet.Packet) { order = append(order, 1) }), nil)
	eng.Schedule(time.Second, func() { order = append(order, 2) })
	eng.SchedulePacket(time.Second, sinkFunc(func(*packet.Packet) { order = append(order, 3) }), nil)
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

// sinkFunc adapts a func to PacketSink for tests. (Production code binds
// long-lived objects instead; a sinkFunc value allocates like a closure.)
type sinkFunc func(p *packet.Packet)

func (f sinkFunc) Deliver(p *packet.Packet) { f(p) }

func TestSchedulePacketCancelReturnsOwnership(t *testing.T) {
	eng := New()
	s := &collectSink{eng: eng}
	p := &packet.Packet{ID: 9}
	ev := eng.SchedulePacket(time.Second, s, p)
	ev.Cancel()
	eng.Run()
	if len(s.pkts) != 0 {
		t.Fatal("canceled packet event delivered")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false")
	}
	// The recycled event must not leak the sink or packet into a later
	// plain event.
	fired := false
	eng.Schedule(time.Second, func() { fired = true })
	eng.Run()
	if !fired || len(s.pkts) != 0 {
		t.Fatal("recycled event carried stale sink state")
	}
}

func TestSchedulePacketNegativeDelayPanics(t *testing.T) {
	eng := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	eng.SchedulePacket(-time.Nanosecond, &collectSink{eng: eng}, nil)
}

// A warmed engine schedules and fires typed events without allocating:
// the event comes from the free list and the sink is pre-bound.
func TestSchedulePacketDoesNotAllocate(t *testing.T) {
	eng := New()
	s := &collectSink{eng: eng}
	s.pkts = make([]*packet.Packet, 0, 1024)
	s.times = make([]Time, 0, 1024)
	p := &packet.Packet{ID: 1}
	// Warm the free list.
	eng.SchedulePacket(time.Second, s, p)
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		eng.SchedulePacket(time.Second, s, p)
		eng.Step()
	})
	if allocs > 0 {
		t.Fatalf("SchedulePacket+Step allocates %.1f/op, want 0", allocs)
	}
}

// Reset hands the pool back the packets of the events it drops — in the
// wheel's run buffer, its buckets and its overflow, or in the heap — and
// leaves a plain event's callback to the garbage collector.
func TestResetReturnsEventPackets(t *testing.T) {
	for _, kind := range []SchedKind{SchedWheel, SchedHeap} {
		eng := NewSched(kind)
		pl := packet.NewPool()
		s := &collectSink{eng: eng}
		var held []*packet.Packet
		for _, d := range []time.Duration{0, time.Millisecond, time.Second, time.Hour, 1000 * time.Hour} {
			p := pl.Get()
			held = append(held, p)
			eng.SchedulePacket(d, s, p)
		}
		eng.Schedule(time.Second, func() { t.Error("a dropped event fired") })
		eng.Reset(pl)
		for i, p := range held {
			if !p.Released() {
				t.Fatalf("%v: the packet of event %d was not returned to the pool", kind, i)
			}
		}
		if eng.Pending() != 0 || pl.Free() != len(held) {
			t.Fatalf("%v: %d events pending and %d packets free after Reset, want 0 and %d", kind, eng.Pending(), pl.Free(), len(held))
		}
		eng.Run()
	}
}
