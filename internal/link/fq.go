package link

import (
	"math"

	"tahoedyn/internal/packet"
)

// FQ is self-clocked fair queueing over per-connection flows — the
// gateway discipline of the Fair Queueing studies the paper cites in
// §1 ([2], [3]). Arriving packets are tagged with a virtual finish
// time F = max(v, lastF(flow)) + bits, where v is the finish tag of
// the packet in service, and the flow whose head has the smallest tag
// is served next. On overflow, the last packet of the longest flow
// queue is discarded (the heaviest flow pays), which may be the
// arrival itself.
type FQ struct {
	h     DiscHost
	sched *fqSched
}

// NewFQ returns a fair-queueing discipline.
func NewFQ() *FQ { return &FQ{sched: newFQSched()} }

// Bind implements Disc.
func (d *FQ) Bind(h DiscHost) { d.h = h }

// Len implements Disc.
func (d *FQ) Len() int { return d.sched.Len() }

// Admit implements Disc: at a full buffer, evict the tail of the longest
// flow (possibly the arrival itself), then tag and store the arrival —
// in that order, so the trace reads drop → enqueue at true lengths.
func (d *FQ) Admit(p *packet.Packet) bool {
	if c := d.h.Capacity(); c > 0 && d.sched.Len()+d.h.InService() >= c {
		victim := d.sched.DropFromLongest(p.Conn)
		if victim == nil {
			d.h.Drop(p)
			return false
		}
		d.h.Drop(victim)
	}
	d.sched.Enqueue(p)
	return true
}

// Dequeue implements Disc.
func (d *FQ) Dequeue() *packet.Packet { return d.sched.Dequeue() }

// fqPacket is a queued packet with its finish tag.
type fqPacket struct {
	p   *packet.Packet
	tag float64
}

// fqFlow is one per-connection backlog.
type fqFlow struct {
	conn  int
	pkts  []fqPacket
	lastF float64
}

// fqSched is a self-clocked fair queueing scheduler (Golestani's SCFQ
// approximation of bit-by-bit round robin).
type fqSched struct {
	flows map[int]*fqFlow
	order []*fqFlow // stable iteration order for determinism
	v     float64   // virtual time: finish tag of the packet in service
	total int
}

func newFQSched() *fqSched {
	return &fqSched{flows: make(map[int]*fqFlow)}
}

// Len returns the number of waiting packets across all flows.
func (s *fqSched) Len() int { return s.total }

// Enqueue tags and stores p.
func (s *fqSched) Enqueue(p *packet.Packet) {
	f := s.flows[p.Conn]
	if f == nil {
		f = &fqFlow{conn: p.Conn}
		s.flows[p.Conn] = f
		s.order = append(s.order, f)
	}
	start := math.Max(s.v, f.lastF)
	// +1 keeps zero-size ACKs strictly ordered within their flow.
	tag := start + float64(p.Size*8+1)
	f.lastF = tag
	f.pkts = append(f.pkts, fqPacket{p: p, tag: tag})
	s.total++
}

// Dequeue removes and returns the packet with the smallest finish tag
// (ties broken by flow creation order), advancing virtual time to its
// tag. It returns nil when empty.
func (s *fqSched) Dequeue() *packet.Packet {
	var best *fqFlow
	for _, f := range s.order {
		if len(f.pkts) == 0 {
			continue
		}
		if best == nil || f.pkts[0].tag < best.pkts[0].tag {
			best = f
		}
	}
	if best == nil {
		return nil
	}
	head := best.pkts[0]
	best.pkts = best.pkts[1:]
	s.total--
	s.v = head.tag
	return head.p
}

// DropFromLongest removes and returns the tail packet of the flow with
// the largest backlog (ties broken by flow creation order), or nil when
// empty. This is the buffer-stealing policy of the Fair Queueing papers:
// the heaviest flow pays for the overflow. Connection arriving's flow
// (-1: none) counts one more, for an arrival not yet stored; when it is
// the longest, or the only one, the arrival pays and the result is nil.
func (s *fqSched) DropFromLongest(arriving int) *packet.Packet {
	var worst *fqFlow
	most := 0
	for _, f := range s.order {
		n := len(f.pkts)
		if f.conn == arriving {
			n++
		}
		if n > most {
			worst, most = f, n
		}
	}
	if worst == nil || worst.conn == arriving {
		return nil
	}
	last := worst.pkts[len(worst.pkts)-1]
	worst.pkts = worst.pkts[:len(worst.pkts)-1]
	s.total--
	// Roll the flow's finish tag back so its next packet is not charged
	// for the evicted one.
	if len(worst.pkts) > 0 {
		worst.lastF = worst.pkts[len(worst.pkts)-1].tag
	} else {
		worst.lastF = s.v
	}
	return last.p
}
