package link

import "tahoedyn/internal/packet"

// ring is the FIFO packet buffer of a drop-tail port and of the
// single-queue disciplines (Random Drop, RED): the paper's switches
// (§2.2) have one buffer per outgoing line, measured in packets, so an
// ACK takes the same slot as a data packet. It is a circular array
// sized to the port's Buffer when the port or discipline is bound;
// admission never lets more than Buffer packets wait, so it neither
// grows nor compacts. An unbounded ring (Buffer <= 0, the host NICs, or
// a Buffer beyond ringReserve) doubles when full.
type ring struct {
	buf  []*packet.Packet
	head int // slot of the oldest packet
	n    int // packets held
}

// ringReserve caps the slots reserved up front, so a Buffer written as
// a large number to mean "never full" reserves no memory it never uses.
const ringReserve = 256

// newRing returns an empty ring for a port whose Buffer is capacity.
func newRing(capacity int) ring {
	return ring{buf: make([]*packet.Packet, min(max(capacity, 0), ringReserve))}
}

// len returns the number of packets currently buffered.
func (q *ring) len() int { return q.n }

// slot returns the array index of position i (0 = head), i < len(buf).
func (q *ring) slot(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// push appends p at the tail.
func (q *ring) push(p *packet.Packet) {
	if q.n == len(q.buf) {
		buf := make([]*packet.Packet, max(2*len(q.buf), 4))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[q.slot(q.n)] = p
	q.n++
}

// pop removes and returns the head packet, or nil if empty.
func (q *ring) pop() *packet.Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = q.slot(1)
	q.n--
	return p
}

// removeAt removes and returns the packet at position i (0 = head), or
// nil if i is out of range. It exists for Random Drop, which evicts a
// uniformly chosen buffered packet on overflow.
func (q *ring) removeAt(i int) *packet.Packet {
	if i < 0 || i >= q.n {
		return nil
	}
	p := q.buf[q.slot(i)]
	for ; i < q.n-1; i++ {
		q.buf[q.slot(i)] = q.buf[q.slot(i+1)]
	}
	q.buf[q.slot(i)] = nil
	q.n--
	return p
}
