package packet

import "fmt"

// Queue is the FIFO packet buffer of a drop-tail port and of the
// single-queue disciplines (Random Drop, RED): the paper's switches
// (§2.2) have one buffer per outgoing line, measured in packets, so an
// ACK takes the same slot as a data packet. Its packets are threaded
// through their own next links, so a queue of any length owns no
// memory of its own: it never allocates, grows or compacts, bounded or
// not. The zero Queue is empty and ready to use.
//
// The last queued packet links to queueEnd rather than to nil, so every
// queued packet has a non-nil next and a packet taken out has a nil
// one. Pool.Put reads that to refuse a packet still in a queue, and
// Push to refuse one already in some queue.
type Queue struct {
	head, tail *Packet
	n          int
}

// queueEnd ends every queue; it is never itself queued.
var queueEnd Packet

// Len returns the number of packets queued.
func (q *Queue) Len() int { return q.n }

// Push appends p at the tail. A packet can be in one queue, once:
// pushing a queued packet panics.
func (q *Queue) Push(p *Packet) {
	if p.next != nil {
		panic(fmt.Sprintf("packet: push of queued packet ID=%d seq=%d", p.ID, p.Seq))
	}
	p.next = &queueEnd
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

// Pop removes and returns the head packet, or nil if the queue is empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	if p.next == &queueEnd {
		q.head, q.tail = nil, nil
	} else {
		q.head = p.next
	}
	p.next = nil
	q.n--
	return p
}

// RemoveAt removes and returns the packet at position i (0 = head), or
// nil if i is out of range. It exists for Random Drop, which evicts a
// uniformly chosen waiting packet on overflow; it walks i links.
func (q *Queue) RemoveAt(i int) *Packet {
	if i < 0 || i >= q.n {
		return nil
	}
	if i == 0 {
		return q.Pop()
	}
	prev := q.head
	for ; i > 1; i-- {
		prev = prev.next
	}
	p := prev.next
	prev.next = p.next
	if p == q.tail {
		q.tail = prev
	}
	p.next = nil
	q.n--
	return p
}
