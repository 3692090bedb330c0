package link

import "tahoedyn/internal/packet"

// fifo is the first-in-first-out packet buffer behind the single-queue
// disciplines (drop-tail, Random Drop, RED). The paper's switches
// (§2.2) have one buffer per outgoing line, FIFO service, length
// measured in packets (not bytes) — which is why an ACK occupies the
// same slot as a data packet, an asymmetry central to ACK-compression.
//
// The buffer itself is unbounded: capacity is the discipline's
// business (every Disc.Admit checks DiscHost.Capacity before pushing).
// The zero value is an empty buffer ready for use.
type fifo struct {
	items []*packet.Packet
	head  int
}

// len returns the number of packets currently buffered.
func (q *fifo) len() int { return len(q.items) - q.head }

// push appends p to the tail.
func (q *fifo) push(p *packet.Packet) { q.items = append(q.items, p) }

// pop removes and returns the head packet, or nil if empty.
func (q *fifo) pop() *packet.Packet {
	if q.len() == 0 {
		return nil
	}
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	// Compact once the dead prefix dominates, keeping pop amortized O(1)
	// without unbounded growth.
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return p
}

// removeAt removes and returns the packet at position i (0 = head). It
// exists for the Random Drop discipline, which evicts a uniformly
// chosen buffered packet on overflow. It returns nil if i is out of
// range.
func (q *fifo) removeAt(i int) *packet.Packet {
	if i < 0 || i >= q.len() {
		return nil
	}
	if i == 0 {
		return q.pop()
	}
	idx := q.head + i
	p := q.items[idx]
	copy(q.items[idx:], q.items[idx+1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return p
}
