package link

import (
	"reflect"
	"testing"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

func newPooledFQPort(eng *sim.Engine, buffer int, pl *packet.Pool) (*Port, *sink) {
	s := &sink{eng: eng}
	pt := NewPort(eng, Config{
		Name:      "fq-pooled",
		Bandwidth: 50_000,
		Buffer:    buffer,
		Disc:      NewFQ(),
		Pool:      pl,
	}, s)
	return pt, s
}

// The drop-of-arrival edge of FQ: when the arriving packet's own flow
// is the longest, the arrival itself is the victim. Send must
// report rejection, skip the Enqueued counter and the OnAdmit hook
// (the accepted queue length did not change), and release the arrival to
// the pool at the drop site.
func TestSendFQDropOfArrivalEdge(t *testing.T) {
	eng := sim.New()
	pl := packet.NewPool()
	pt, _ := newPooledFQPort(eng, 2, pl)
	var lens []int
	pt.SetOnAdmit(func(n int, evicted bool) {
		if evicted {
			t.Errorf("admission at length %d reported an eviction", n)
		}
		lens = append(lens, n)
	})
	var dropped []*packet.Packet
	pt.SetOnDrop(func(p *packet.Packet) {
		if p.Released() {
			t.Fatal("OnDrop saw an already-released packet")
		}
		dropped = append(dropped, p)
	})

	mk := func(id uint64, conn int) *packet.Packet {
		p := pl.Get()
		p.ID, p.Conn, p.Size = id, conn, 500
		return p
	}
	// p0 enters service immediately; p1 waits. QueueLen is now 2 == Buffer.
	if !pt.Send(mk(0, 1)) || !pt.Send(mk(1, 1)) {
		t.Fatal("setup packets rejected")
	}
	// p2 joins flow 1, the only (hence longest) flow: it is its own victim.
	p2 := mk(2, 1)
	if pt.Send(p2) {
		t.Fatal("overflow arrival from the longest flow was accepted")
	}
	if len(dropped) != 1 || dropped[0] != p2 {
		t.Fatalf("dropped = %v, want exactly the arrival", dropped)
	}
	if !p2.Released() {
		t.Fatal("dropped arrival was not released to the pool")
	}
	if got := pt.Stats(); got.Dropped != 1 || got.Enqueued != 2 {
		t.Fatalf("stats = %+v, want Dropped=1 Enqueued=2", got)
	}
	// Two accepted arrivals reported lengths 1 and 2; the rejected one
	// must not have fired the hook at all.
	if len(lens) != 2 || lens[0] != 1 || lens[1] != 2 {
		t.Fatalf("OnAdmit calls = %v, want [1 2]", lens)
	}
	if pt.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d after rejected arrival, want 2", pt.QueueLen())
	}
}

// When a light flow's arrival overflows the buffer, the heavy flow pays:
// the arrival is accepted and a queued packet is released instead, and
// OnAdmit reports the admission as one that evicted.
func TestSendFQDropOfQueuedVictim(t *testing.T) {
	eng := sim.New()
	pl := packet.NewPool()
	pt, _ := newPooledFQPort(eng, 3, pl)
	var evictions []bool
	pt.SetOnAdmit(func(_ int, evicted bool) { evictions = append(evictions, evicted) })
	mk := func(id uint64, conn int) *packet.Packet {
		p := pl.Get()
		p.ID, p.Conn, p.Size = id, conn, 500
		return p
	}
	pt.Send(mk(0, 1)) // enters service
	pt.Send(mk(1, 1))
	p2 := mk(2, 1) // tail of the heavy flow: the victim
	pt.Send(p2)
	if !pt.Send(mk(3, 2)) {
		t.Fatal("light-flow arrival rejected; the heavy flow should pay")
	}
	if !p2.Released() {
		t.Fatal("heavy flow's queued tail was not released on eviction")
	}
	if pt.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d, want 3", pt.QueueLen())
	}
	if want := []bool{false, false, false, true}; !reflect.DeepEqual(evictions, want) {
		t.Fatalf("OnAdmit evictions = %v, want %v", evictions, want)
	}
}

// QueueLen counts the in-service packet exactly once through a full
// transmission lifecycle under FairQueue, matching the FIFO convention
// where the head stays queued until its last bit is sent.
func TestFQQueueLenCountsInServiceOnceThroughLifecycle(t *testing.T) {
	eng := sim.New()
	pt, s := newFQPort(eng, 0)
	pt.Send(&packet.Packet{ID: 0, Conn: 1, Size: 500})
	pt.Send(&packet.Packet{ID: 1, Conn: 1, Size: 500})
	pt.Send(&packet.Packet{ID: 2, Conn: 2, Size: 500})
	// 500 B at 50 Kbps = 80 ms per packet.
	if pt.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d at t=0, want 3 (1 in service + 2 waiting)", pt.QueueLen())
	}
	eng.RunUntil(40 * time.Millisecond) // mid-transmission
	if pt.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d mid-transmission, want 3", pt.QueueLen())
	}
	eng.RunUntil(100 * time.Millisecond) // first done, second in service
	if pt.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d after first departure, want 2", pt.QueueLen())
	}
	eng.RunUntil(180 * time.Millisecond)
	if pt.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d after second departure, want 1", pt.QueueLen())
	}
	eng.Run()
	if pt.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after drain, want 0", pt.QueueLen())
	}
	if len(s.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(s.pkts))
	}
}

// A FIFO drop-tail port with a pool releases exactly the packets it
// drops; delivered packets stay owned by the receiver.
func TestFIFODropReleasesToPool(t *testing.T) {
	eng := sim.New()
	pl := packet.NewPool()
	s := &sink{eng: eng}
	pt := NewPort(eng, Config{
		Name:      "pooled",
		Bandwidth: 50_000,
		Buffer:    2,
		Pool:      pl,
	}, s)
	// Draw all four up front: a dropped packet goes straight back to the
	// free list, and drawing after the drop would hand the same memory out
	// again.
	var pkts []*packet.Packet
	for i := 0; i < 4; i++ {
		p := pl.Get()
		p.ID, p.Size = uint64(i), 500
		pkts = append(pkts, p)
	}
	for _, p := range pkts {
		pt.Send(p)
	}
	// Buffer 2: packets 2 and 3 are tail-dropped and released immediately.
	for i, p := range pkts {
		wantReleased := i >= 2
		if p.Released() != wantReleased {
			t.Fatalf("packet %d released = %v, want %v", i, p.Released(), wantReleased)
		}
	}
	eng.Run()
	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.pkts))
	}
	for _, p := range s.pkts {
		if p.Released() {
			t.Fatal("delivered packet was released by the port")
		}
	}
	if pl.Free() != 2 {
		t.Fatalf("pool free list = %d, want the 2 dropped packets", pl.Free())
	}
}

// Reclaim returns what a port holds when its run has ended — the packet
// on the line and the waiting ones, under drop-tail and under a Disc —
// and a second call returns nothing.
func TestReclaim(t *testing.T) {
	eng := sim.New()
	pl := packet.NewPool()
	dt := NewPort(eng, Config{Name: "nic", Bandwidth: 50_000, Pool: pl}, &sink{eng: eng})
	fq, _ := newPooledFQPort(eng, 10, pl)
	var held []*packet.Packet
	for i := range 20 {
		p := pl.Get()
		p.ID, p.Conn, p.Size = uint64(i), 1+i%3, 500
		held = append(held, p)
		if i%2 == 0 {
			dt.Send(p)
		} else {
			fq.Send(p)
		}
	}
	dt.Reclaim()
	fq.Reclaim()
	dt.Reclaim()
	for i, p := range held {
		if !p.Released() {
			t.Fatalf("packet %d was not returned to the pool", i)
		}
	}
	if dt.QueueLen() != 0 || fq.QueueLen() != 0 {
		t.Fatalf("queue lengths %d and %d after Reclaim, want 0", dt.QueueLen(), fq.QueueLen())
	}
}
