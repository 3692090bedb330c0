package link

import (
	"math/rand"
	"time"

	"tahoedyn/internal/packet"
)

// Disc is a queue discipline: the policy deciding which arriving
// packets enter a port's buffer, which buffered packet is served next,
// and which packet pays for an overflow. Drop-tail, the paper's
// discipline, is not a Disc: a port with a nil Config.Disc runs it
// itself, on its own packet.Queue.
//
// A discipline owns only the *waiting* packets. The packet currently
// being serialized onto the line is held by the port itself and is
// visible to the discipline through DiscHost.InService; Port.QueueLen
// (and every traced queue length) counts it, preserving the paper's
// convention that the in-service packet occupies its buffer slot until
// the last bit is sent.
//
// Ownership: a packet offered to Admit either enters the discipline
// (accepted) or is dropped via DiscHost.Drop — by the discipline, at
// the exact moment of discard, so eviction drops and arrival drops
// trace in their true order. Admit reports whether the arrival itself
// survived. Dequeue transfers ownership of one waiting packet back to
// the port.
type Disc interface {
	// Bind attaches the discipline to its port. It is called exactly
	// once, before any traffic.
	Bind(h DiscHost)
	// Len returns the number of waiting packets (excluding the
	// in-service packet).
	Len() int
	// Admit offers an arriving packet. The discipline either stores it
	// (return true), possibly after evicting one victim via DiscHost.Drop,
	// or discards it via DiscHost.Drop (return false). It evicts at most
	// one waiting packet: an admission raises the queue length by one, or
	// by none when it evicted (Port.OnAdmit).
	Admit(p *packet.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil
	// when no packet is waiting.
	Dequeue() *packet.Packet
}

// DiscHost is the view of the owning port a discipline sees: the
// clock, the configured capacity, whether the transmitter is busy, the
// drop sink, and the nominal serialization time of the line (for
// disciplines, like RED, that age state across idle periods).
type DiscHost interface {
	// Now returns the current simulation time.
	Now() time.Duration
	// Capacity returns the configured buffer capacity in packets,
	// counting the in-service packet; <= 0 means unbounded.
	Capacity() int
	// InService returns 1 while a packet is being serialized, else 0.
	InService() int
	// Drop records and releases a discarded packet (stats, trace event,
	// drop hook, pool return). The discipline must have removed the
	// packet from its own structures first.
	Drop(p *packet.Packet)
	// NominalTx returns the serialization time of sizeBytes at the
	// port's configured bandwidth (ignoring any time-varying behavior).
	NominalTx(sizeBytes int) time.Duration
}

// RandomDropDisc is the Random Drop gateway discipline of the studies
// the paper cites in §1: on overflow a uniform choice among the
// waiting packets and the arrival is discarded. The in-service packet
// is never evicted. Service stays FIFO.
type RandomDropDisc struct {
	h   DiscHost
	q   packet.Queue
	rng *rand.Rand
}

// NewRandomDrop returns a Random Drop discipline driven by the given
// seeded source (required, for reproducible runs).
func NewRandomDrop(rng *rand.Rand) *RandomDropDisc {
	if rng == nil {
		panic("link: RandomDrop needs a Rand source")
	}
	return &RandomDropDisc{rng: rng}
}

// Bind implements Disc.
func (d *RandomDropDisc) Bind(h DiscHost) { d.h = h }

// Len implements Disc.
func (d *RandomDropDisc) Len() int { return d.q.Len() }

// Admit implements Disc. The draw is Intn(waiting+1): index `waiting`
// means the arrival itself is the victim.
func (d *RandomDropDisc) Admit(p *packet.Packet) bool {
	if c := d.h.Capacity(); c > 0 && d.q.Len()+d.h.InService() >= c {
		evictable := d.q.Len()
		pick := d.rng.Intn(evictable + 1)
		if pick >= evictable {
			d.h.Drop(p)
			return false
		}
		victim := d.q.RemoveAt(pick)
		d.h.Drop(victim)
		// The arrival now fits.
	}
	d.q.Push(p)
	return true
}

// Dequeue implements Disc.
func (d *RandomDropDisc) Dequeue() *packet.Packet { return d.q.Pop() }
