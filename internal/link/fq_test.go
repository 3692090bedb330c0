package link

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/tstore"
)

func newFQPort(eng *sim.Engine, buffer int) (*Port, *sink) {
	s := &sink{eng: eng}
	pt := NewPort(eng, Config{
		Name:      "fq",
		Bandwidth: 50_000,
		Delay:     0,
		Buffer:    buffer,
		Disc:      NewFQ(),
	}, s)
	return pt, s
}

func TestFQSchedulerTagOrder(t *testing.T) {
	s := newFQSched()
	// Flow 1 queues three big packets; flow 2 then queues one small one.
	for i := 0; i < 3; i++ {
		s.Enqueue(&packet.Packet{ID: uint64(i), Conn: 1, Size: 500})
	}
	s.Enqueue(&packet.Packet{ID: 10, Conn: 2, Size: 50})
	// With virtual time still 0, flow 2's small packet gets tag 401,
	// beating even flow 1's first packet (tag 4001): f2, f1[0], f1[1],
	// f1[2].
	wantIDs := []uint64{10, 0, 1, 2}
	for _, want := range wantIDs {
		got := s.Dequeue()
		if got == nil || got.ID != want {
			t.Fatalf("dequeue = %v, want ID %d", got, want)
		}
	}
	if s.Dequeue() != nil {
		t.Fatal("dequeue from empty scheduler")
	}
}

func TestFQInterleavesEqualFlows(t *testing.T) {
	s := newFQSched()
	// Two flows, same packet sizes: service must alternate.
	for i := 0; i < 4; i++ {
		s.Enqueue(&packet.Packet{ID: uint64(i), Conn: 1, Size: 500})
	}
	for i := 0; i < 4; i++ {
		s.Enqueue(&packet.Packet{ID: uint64(10 + i), Conn: 2, Size: 500})
	}
	var conns []int
	for {
		p := s.Dequeue()
		if p == nil {
			break
		}
		conns = append(conns, p.Conn)
	}
	if len(conns) != 8 {
		t.Fatalf("dequeued %d packets", len(conns))
	}
	// After the initial run of flow 1 or 2, service alternates; count
	// adjacent same-flow pairs — must be well below a FIFO's 6.
	same := 0
	for i := 1; i < len(conns); i++ {
		if conns[i] == conns[i-1] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("FQ barely interleaved: order %v", conns)
	}
}

func TestFQSmallPacketsNotStarved(t *testing.T) {
	s := newFQSched()
	// A flow of tiny ACKs vs a flow of big data packets: by bit-fairness
	// many ACKs should precede the second data packet.
	for i := 0; i < 10; i++ {
		s.Enqueue(&packet.Packet{ID: uint64(i), Conn: 1, Size: 500, Kind: packet.Data})
	}
	for i := 0; i < 10; i++ {
		s.Enqueue(&packet.Packet{ID: uint64(100 + i), Conn: 2, Size: 50, Kind: packet.Ack})
	}
	acksBeforeSecondData := 0
	dataSeen := 0
	for {
		p := s.Dequeue()
		if p == nil {
			break
		}
		if p.Kind == packet.Data {
			dataSeen++
			if dataSeen == 2 {
				break
			}
		} else {
			acksBeforeSecondData++
		}
	}
	// 10 ACKs total 4010 bit-rounds; the second data packet finishes at
	// 8002 — by bit-fairness every ACK beats it.
	if acksBeforeSecondData < 9 {
		t.Fatalf("only %d ACKs served before the second data packet; want bit-fair share", acksBeforeSecondData)
	}
}

func TestFQDropFromLongest(t *testing.T) {
	s := newFQSched()
	for i := 0; i < 5; i++ {
		s.Enqueue(&packet.Packet{ID: uint64(i), Conn: 1, Size: 500})
	}
	s.Enqueue(&packet.Packet{ID: 100, Conn: 2, Size: 500})
	victim := s.DropFromLongest(-1)
	if victim == nil || victim.Conn != 1 {
		t.Fatalf("victim = %v, want from flow 1", victim)
	}
	if victim.ID != 4 {
		t.Fatalf("victim ID = %d, want the tail packet 4", victim.ID)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if newFQSched().DropFromLongest(-1) != nil {
		t.Fatal("drop from empty scheduler returned a packet")
	}
}

func TestFQPortSharesLineBetweenFlows(t *testing.T) {
	eng := sim.New()
	pt, s := newFQPort(eng, 0)
	// Flow 1 floods 10 packets at t=0; flow 2 sends one at t=1ms.
	for i := 0; i < 10; i++ {
		pt.Send(&packet.Packet{ID: uint64(i), Conn: 1, Size: 500})
	}
	eng.ScheduleAt(time.Millisecond, func() {
		pt.Send(&packet.Packet{ID: 99, Conn: 2, Size: 500})
	})
	eng.Run()
	if len(s.pkts) != 11 {
		t.Fatalf("delivered %d", len(s.pkts))
	}
	// Flow 2's packet must NOT wait behind all of flow 1: it should be
	// delivered second or third, not eleventh.
	pos := -1
	for i, p := range s.pkts {
		if p.ID == 99 {
			pos = i
		}
	}
	if pos > 2 {
		t.Fatalf("flow-2 packet delivered at position %d; FQ should protect it", pos)
	}
}

func TestFQPortOverflowDropsFromHeavyFlow(t *testing.T) {
	eng := sim.New()
	pt, s := newFQPort(eng, 4)
	var dropped []*packet.Packet
	pt.SetOnDrop(func(p *packet.Packet) { dropped = append(dropped, p) })
	for i := 0; i < 8; i++ {
		pt.Send(&packet.Packet{ID: uint64(i), Conn: 1, Size: 500})
	}
	pt.Send(&packet.Packet{ID: 50, Conn: 2, Size: 500})
	eng.Run()
	if len(dropped) != 5 {
		t.Fatalf("dropped %d, want 5", len(dropped))
	}
	for _, p := range dropped {
		if p.Conn != 1 {
			t.Fatalf("victim from flow %d; the heavy flow must pay", p.Conn)
		}
	}
	// The light flow's packet survives and is delivered.
	found := false
	for _, p := range s.pkts {
		if p.ID == 50 {
			found = true
		}
	}
	if !found {
		t.Fatal("light flow's packet was lost")
	}
}

func TestFQPortQueueLenCountsInService(t *testing.T) {
	eng := sim.New()
	pt, _ := newFQPort(eng, 0)
	pt.Send(&packet.Packet{ID: 0, Conn: 1, Size: 500})
	pt.Send(&packet.Packet{ID: 1, Conn: 1, Size: 500})
	if pt.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2 (1 in service + 1 waiting)", pt.QueueLen())
	}
	eng.Run()
	if pt.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after drain", pt.QueueLen())
	}
}

// An FQ port that evicts a queued victim for a light flow's arrival
// traces the victim's drop, then the arrival's enqueue, each at the
// queue length it leaves — so the invariant checker, reading the port's
// trace, finds packet conservation intact.
func TestFQEvictionPassesInvariantChecker(t *testing.T) {
	eng := sim.New()
	mem := obs.NewMemorySink()
	checker := tstore.NewChecker(mem, tstore.CheckOptions{})
	tr := obs.NewTracer(obs.TraceOptions{Sink: checker})
	pt := NewPort(eng, Config{Name: "fq", Bandwidth: 50_000, Buffer: 3, Disc: NewFQ(), Obs: tr}, &sink{eng: eng})
	for i, conn := range []int{1, 1, 1, 2} { // the fourth arrival evicts packet 2, flow 1's tail
		pt.Send(&packet.Packet{ID: uint64(i), Conn: conn, Size: 500})
	}
	eng.Run()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if v := checker.Violation(); v != nil {
		t.Fatal(v)
	}
	_, events := mem.Snapshot()
	var got []string
	for _, ev := range events {
		if ev.Type == obs.Drop || ev.Type == obs.Enqueue && ev.ID == 3 {
			got = append(got, fmt.Sprintf("%v %d at %g", ev.Type, ev.ID, ev.Val))
		}
	}
	if want := []string{"drop 2 at 2", "enqueue 3 at 3"}; !slices.Equal(got, want) {
		t.Fatalf("eviction traced as %q, want %q", got, want)
	}
	if pt.Stats().Dropped != 1 {
		t.Fatalf("dropped %d, want 1", pt.Stats().Dropped)
	}
}
