// Package packet defines the unit of traffic exchanged by the simulated
// network: fixed-size TCP data segments and their acknowledgments.
//
// Following the paper, windows and sequence numbers are measured in units
// of maximum-size packets rather than bytes; a data packet carries exactly
// one segment. Packet sizes (in bytes) still matter because transmission
// time on a link is proportional to size, and the 10:1 data:ACK size
// ratio is precisely what produces ACK-compression.
package packet

import (
	"fmt"
	"time"
)

// Kind distinguishes data segments from acknowledgments.
type Kind uint8

const (
	// Data is a TCP segment carrying one maximum-size packet of payload.
	Data Kind = iota
	// Ack is a pure acknowledgment.
	Ack
)

// String returns "DATA" or "ACK".
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Packet is one simulated packet. Packets are created by TCP endpoints
// and passed by pointer through queues and links; they are never copied
// once in flight.
type Packet struct {
	// next links a queued packet to the one behind it (queueEnd for the
	// last); nil while the packet is in no Queue. It comes first so the
	// collector scans one word of a packet.
	next *Packet
	// ID is unique across the simulation, for tracing.
	ID uint64
	// Kind is Data or Ack.
	Kind Kind
	// Conn identifies the TCP connection the packet belongs to.
	Conn int
	// Src and Dst are host identifiers used for routing.
	Src, Dst int
	// Seq is the data sequence number in packets. For Data packets it is
	// the segment being carried; for Ack packets it is the cumulative
	// acknowledgment: the next sequence number the receiver expects.
	Seq int
	// Size is the packet length in bytes, used for transmission timing.
	Size int
	// SentAt records when the segment currently being RTT-timed left the
	// sender; zero when the packet is not a timing sample.
	SentAt time.Duration
	// Retransmit marks retransmitted data segments. Per Karn's algorithm
	// these must not contribute RTT samples.
	Retransmit bool

	// released marks a packet sitting in a Pool free list. It is the
	// double-release/use-after-release checker's state; see Pool.
	released bool
}

// String renders a compact human-readable description for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s conn=%d seq=%d size=%dB", p.Kind, p.Conn, p.Seq, p.Size)
}
