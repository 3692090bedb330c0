package link

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// refPort is the referee for a port: the waiting packets in a plain
// slice, the packet on the line, and the buffer bound. The discipline's
// admission decision is made by admit.
type refPort struct {
	buffer  int
	waiting []*packet.Packet
	onLine  *packet.Packet
}

func (r *refPort) len() int {
	if r.onLine != nil {
		return len(r.waiting) + 1
	}
	return len(r.waiting)
}

func (r *refPort) full() bool { return r.buffer > 0 && r.len() >= r.buffer }

// serve moves the head of the slice onto an idle line.
func (r *refPort) serve() {
	if r.onLine == nil && len(r.waiting) > 0 {
		r.onLine, r.waiting = r.waiting[0], r.waiting[1:]
	}
}

// refDisc is a discipline as the referee applies it: admit offers p to
// r and returns the packet dropped for it (p, a waiting victim, or nil);
// served tells the discipline the referee put a packet on the line.
type refDisc struct {
	disc   func() Disc
	admit  func(r *refPort, p *packet.Packet) (dropped *packet.Packet)
	served func()
}

// dropTailRef, randomDropRef and redRef build a discipline for a port
// and its referee twin from one seed.
func dropTailRef(int64, int, *time.Duration) refDisc {
	return refDisc{
		disc: func() Disc { return nil },
		admit: func(r *refPort, p *packet.Packet) *packet.Packet {
			if r.full() {
				return p
			}
			r.waiting = append(r.waiting, p)
			return nil
		},
	}
}

func randomDropRef(seed int64, _ int, _ *time.Duration) refDisc {
	pick := rand.New(rand.NewSource(seed))
	return refDisc{
		disc: func() Disc { return NewRandomDrop(rand.New(rand.NewSource(seed))) },
		admit: func(r *refPort, p *packet.Packet) *packet.Packet {
			if r.full() {
				i := pick.Intn(len(r.waiting) + 1)
				if i == len(r.waiting) {
					return p
				}
				victim := r.waiting[i]
				r.waiting = slices.Delete(r.waiting, i, i+1)
				r.waiting = append(r.waiting, p)
				return victim
			}
			r.waiting = append(r.waiting, p)
			return nil
		},
	}
}

// redRef's decisions come from a twin RED bound to a redHost that
// mirrors the port's clock and transmitter: the RED arithmetic has its
// own referee (TestREDZeroAverageGuardIsBitIdentical); here the slice
// stands in for the queue underneath it. The thresholds let overload
// phases reach a 20-packet buffer.
func redRef(seed int64, buffer int, now *time.Duration) refDisc {
	cfg := REDConfig{MinTh: 3, MaxTh: 30, MaxP: 0.1, Wq: 0.2}
	h := redHost{capacity: buffer}
	twin := NewRED(cfg, rand.New(rand.NewSource(seed)))
	twin.Bind(&h)
	return refDisc{
		disc: func() Disc { return NewRED(cfg, rand.New(rand.NewSource(seed))) },
		admit: func(r *refPort, p *packet.Packet) *packet.Packet {
			h.now, h.inService = *now, 0
			if r.onLine != nil {
				h.inService = 1
			}
			// The twin queues a stand-in: a packet is in one queue at a time.
			if !twin.Admit(&packet.Packet{ID: p.ID, Size: p.Size}) {
				return p
			}
			r.waiting = append(r.waiting, p)
			return nil
		},
		served: func() {
			h.now = *now
			twin.Dequeue()
		},
	}
}

// refDiscs are the disciplines the slice referee models.
var refDiscs = []struct {
	name string
	ref  func(seed int64, buffer int, now *time.Duration) refDisc
}{{"drop-tail", dropTailRef}, {"random-drop", randomDropRef}, {"red", redRef}}

// TestPortAgainstSliceQueue drives ports with seeded random arrivals,
// service completions and idle gaps, long enough to fill and drain each
// buffer many times, and checks every step against refPort: whether each
// arrival was admitted, which packet was dropped for it, QueueLen after
// every operation, and the order in which packets leave. Random Drop's
// victim, drawn as an index into the queue, must name the packet the
// slice holds at that index. Each port runs bare and again with inert
// hooks, which give a drop-tail port the side struct it otherwise lacks.
func TestPortAgainstSliceQueue(t *testing.T) {
	for _, d := range refDiscs {
		for _, buffer := range []int{-1, 0, 1, 2, 20} {
			t.Run(fmt.Sprintf("%s/buffer=%d", d.name, buffer), func(t *testing.T) {
				for _, hooked := range []bool{false, true} {
					t.Run(fmt.Sprintf("hooked=%v", hooked), func(t *testing.T) {
						for seed := int64(1); seed <= 4; seed++ {
							checkPortAgainstSlice(t, d.ref, buffer, seed, hooked)
						}
					})
				}
			})
		}
	}
}

// FuzzPortAgainstSliceQueue is TestPortAgainstSliceQueue over any seed,
// buffer from unbounded to 20 packets, discipline, and with or without
// inert hooks — both port layouts against the slice referee.
func FuzzPortAgainstSliceQueue(f *testing.F) {
	for disc := range refDiscs {
		for i, buffer := range []uint8{0, 2, 3, 21} {
			f.Add(int64(disc+1), buffer, uint8(disc), i%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, buffer, disc uint8, hooked bool) {
		d := refDiscs[int(disc)%len(refDiscs)]
		checkPortAgainstSlice(t, d.ref, int(buffer%22)-1, seed, hooked)
	})
}

// checkPortAgainstSlice observes the port from outside, as its own
// hooks would: a drop by the packet it releases to the pool, a
// departure by the packet its zero-delay line delivers. With hooked
// set the port also carries hooks that do nothing.
func checkPortAgainstSlice(t *testing.T, mk func(int64, int, *time.Duration) refDisc, buffer int, seed int64, hooked bool) {
	const steps = 6000
	eng := sim.New()
	var now time.Duration
	rd := mk(seed, buffer, &now)
	ref := &refPort{buffer: buffer}
	pool := packet.NewPool()
	line := &sink{eng: eng}
	disc := rd.disc()
	pt := NewPort(eng, Config{Name: "p", Bandwidth: 50_000, Buffer: buffer, Disc: disc, Pool: pool}, line)
	if hooked {
		pt.SetOnAdmit(func(int, bool) {})
		pt.SetOnDrop(func(*packet.Packet) {})
		pt.SetOnDepart(func(*packet.Packet) {})
	}
	if plain := !hooked && disc == nil; (pt.x == nil) != plain {
		t.Fatalf("hooked=%v, disc %T: the port's side struct is %v", hooked, disc, pt.x)
	}

	drive := rand.New(rand.NewSource(seed))
	sendP, served, maxLen := 0.5, 0, 0
	for step := 0; step < steps; step++ {
		if step%200 == 0 { // phases of overload, balance and drain
			sendP = []float64{0.3, 0.5, 0.75}[drive.Intn(3)]
		}
		now = eng.Now()
		switch op := drive.Float64(); {
		case op < sendP:
			p := pool.Get()
			p.ID, p.Size = uint64(step), 500
			free := pool.Free()
			want := rd.admit(ref, p)
			if got := pt.Send(p); got != (want != p) {
				t.Fatalf("seed %d step %d: Send = %v, referee admitted %v", seed, step, got, want != p)
			}
			if released := pool.Free() - free; want == nil && released != 0 || want != nil && (released != 1 || !want.Released()) {
				t.Fatalf("seed %d step %d: %d packets released, referee dropped %v", seed, step, released, want)
			}
		case ref.onLine != nil: // the transmission in progress completes
			for n := len(line.pkts); len(line.pkts) == n; {
				if !eng.Step() {
					t.Fatalf("seed %d step %d: engine ran dry with a packet on the line", seed, step)
				}
			}
			if last := line.pkts[len(line.pkts)-1]; last != ref.onLine {
				t.Fatalf("seed %d step %d: packet %d left, referee serves %d", seed, step, last.ID, ref.onLine.ID)
			}
			ref.onLine = nil
			served++
		default: // an idle line: the clock runs on
			eng.RunUntil(eng.Now() + time.Duration(drive.Int63n(int64(2*time.Second))))
		}
		if ref.onLine == nil && len(ref.waiting) > 0 {
			now = eng.Now()
			ref.serve()
			if rd.served != nil {
				rd.served()
			}
		}
		if got, want := pt.QueueLen(), ref.len(); got != want {
			t.Fatalf("seed %d step %d: QueueLen = %d, referee %d", seed, step, got, want)
		}
		maxLen = max(maxLen, ref.len())
	}
	if served < 20*max(buffer, 1) || buffer > 1 && maxLen < buffer {
		t.Fatalf("seed %d: %d packets served, longest queue %d: too little traffic to fill a %d-packet buffer",
			seed, served, maxLen, buffer)
	}
}

// A port's queue is threaded through the packets it holds, so from a
// port's first packet on, arrivals, overflow drops, evictions and
// departures allocate nothing: under drop-tail, RED and Random Drop
// alike, on an unbounded port, whose queue never grows, on a line that
// loses and jitters packets, and on a port with hooks.
func TestDropTailPortAllocatesNothingFromFirstPacket(t *testing.T) {
	eng := sim.New()
	var pkts [300]packet.Packet
	for i := range pkts {
		pkts[i].Size = 500
	}
	noDisc := func() Disc { return nil }
	for _, c := range []struct {
		name   string
		buffer int
		disc   func() Disc
		beh    bool
		hooked bool
	}{
		{"drop-tail", 20, noDisc, false, false},
		{"red", 20, func() Disc {
			return NewRED(REDConfig{MinTh: 3, MaxTh: 30, MaxP: 0.1, Wq: 0.2}, rand.New(rand.NewSource(1)))
		}, false, false},
		{"random-drop", 20, func() Disc { return NewRandomDrop(rand.New(rand.NewSource(1))) }, false, false},
		{"unbounded", 0, noDisc, false, false},
		{"behavior", 20, noDisc, true, false},
		{"hooked", 20, noDisc, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			newPort := func() *Port {
				cfg := Config{Name: "p", Bandwidth: 50_000, Buffer: c.buffer, Disc: c.disc()}
				if c.beh {
					im, err := NewImpairment(ImpairmentConfig{Loss: 0.05, Jitter: 20 * time.Millisecond}, rand.New(rand.NewSource(1)))
					if err != nil {
						t.Fatal(err)
					}
					cfg.Behavior = im
				}
				pt := NewPort(eng, cfg, nullReceiver{})
				if c.hooked {
					pt.SetOnAdmit(func(int, bool) {})
					pt.SetOnDrop(func(*packet.Packet) {})
					pt.SetOnDepart(func(*packet.Packet) {})
				}
				return pt
			}
			cycles := func(pt *Port) {
				// Rounds of 7 packets and of a 300-packet burst, each sent in
				// full and drained before the next.
				for round := 0; round < 10; round++ {
					for i := range pkts[:7+293*(round%2)] {
						pt.Send(&pkts[i])
					}
					for eng.Step() {
					}
				}
			}
			built := testing.AllocsPerRun(1, func() { newPort() })
			used := testing.AllocsPerRun(1, func() { cycles(newPort()) })
			if used != built {
				t.Fatalf("a new port and 10 rounds of traffic allocate %v times, the port alone %v", used, built)
			}
		})
	}
}

// A drop-tail port is one object: its queue lives in the packets and its
// transmission-finish event is the port itself, so making it is one
// allocation.
func TestNewDropTailPortAllocatesOnce(t *testing.T) {
	eng := sim.New()
	if n := testing.AllocsPerRun(100, func() {
		NewPort(eng, Config{Name: "p", Bandwidth: 50_000, Buffer: 20}, nullReceiver{})
	}); n != 1 {
		t.Fatalf("NewPort allocates %v times, want 1", n)
	}
}

// The port every hop reads is 144 bytes, its own size class: what only
// some ports set lives behind one pointer.
func TestPortSize(t *testing.T) {
	if n := unsafe.Sizeof(Port{}); n > 144 {
		t.Fatalf("a Port is %d bytes, want at most 144", n)
	}
}

type nullReceiver struct{}

func (nullReceiver) Deliver(*packet.Packet) {}
