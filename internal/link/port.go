// Package link models simplex transmission lines and the output ports
// that feed them.
//
// A Port bundles a queue — the paper's drop-tail FIFO, which the port
// runs itself on a packet.Queue, or a Disc (Random Drop, fair
// queueing, RED) — with a transmitter and an optional
// link behavior (Behavior: stochastic loss, jitter, trace-driven
// rates): packets are serialized onto the line at the configured — or
// behavior-scheduled — bandwidth and arrive at the far end one
// propagation delay (plus any jitter) after their last bit leaves. A
// duplex link, as in the paper's Figure 1 topology, is simply a pair
// of ports pointing in opposite directions.
//
// The packet currently being serialized occupies its buffer slot until
// its last bit is sent: the port holds it as the in-service packet and
// every traced queue length counts it — the same convention the
// paper's queue-length figures use.
package link

import (
	"fmt"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// Receiver consumes packets delivered by a line. Hosts and switches
// implement it. It is the engine's PacketSink: a port propagates a
// packet by scheduling a typed event bound to its destination, so the
// per-packet path schedules without allocating a closure.
type Receiver = sim.PacketSink

// Stats accumulates per-port counters. Busy time divided by elapsed time
// is the line utilization.
type Stats struct {
	// Busy is the cumulative time the transmitter spent sending bits.
	Busy time.Duration
	// Transmitted counts packets fully serialized onto the line.
	Transmitted uint64
	// TxBytes counts bytes serialized onto the line.
	TxBytes uint64
	// Dropped counts packets discarded by the queue discipline
	// (overflow, eviction, or an early AQM drop).
	Dropped uint64
	// Lost counts packets discarded by the link behavior after
	// transmission — line losses, as opposed to queue drops.
	Lost uint64
	// Enqueued counts packets accepted into the buffer.
	Enqueued uint64
}

// Config describes a port and its attached line.
type Config struct {
	// Name identifies the port in traces, e.g. "sw1->sw2".
	Name string
	// Bandwidth is the nominal line rate in bits per second. It must be
	// positive. A Behavior with a rate schedule overrides it per packet.
	Bandwidth int64
	// Delay is the propagation delay of the line.
	Delay time.Duration
	// Buffer is the queue capacity in packets, counting the packet in
	// service; <= 0 means unbounded.
	Buffer int
	// Disc is the queue discipline; nil means drop-tail FIFO (the
	// paper's switches, and what QueueSpec.Build returns for drop-tail),
	// run by the port itself on its own packet.Queue. The port binds a
	// Disc at construction; a Disc instance must not be shared between
	// ports.
	Disc Disc
	// Behavior, when non-nil, impairs the line: per-packet loss and
	// jitter at departure, and a time-varying rate sampled at the start
	// of each serialization. Nil is the paper's ideal line.
	Behavior Behavior
	// Pool, when non-nil, receives packets the port discards: a drop is
	// the end of a packet's life, so the drop site releases it (after the
	// OnDrop hook has observed it). See packet.Pool for the ownership
	// protocol.
	Pool *packet.Pool
	// Obs, when non-nil, receives structured trace events (enqueue,
	// dequeue, transmit, drop) at this port, tagged with its Name. A nil
	// tracer costs one pointer check per event site.
	Obs *obs.Tracer
	// Cross, when non-nil, replaces the propagation event: a packet whose
	// last bit has left the port is handed to Cross.Deliver immediately
	// (at its departure time, after any behavior jitter) instead of being
	// scheduled dst-ward Delay later. Sharded runs set it on ports whose
	// line crosses a region boundary; the shard layer owns the delay and
	// re-schedules the arrival on the destination region's engine
	// (internal/shard).
	Cross sim.PacketSink
}

// Port is an output port: a buffered queue discipline draining into a
// simplex transmission line.
type Port struct {
	eng *sim.Engine
	cfg Config
	// q holds a drop-tail port's waiting packets (empty with a Disc);
	// inService is the packet on the line, nil while the line is idle.
	q         packet.Queue
	inService *packet.Packet
	dst       Receiver

	// curTx is the serialization time of the transmission in progress.
	curTx time.Duration

	// obsLoc is the port's interned trace location (0 when cfg.Obs is
	// nil, in which case it is never read).
	obsLoc obs.Loc

	stats Stats

	// OnAdmit, if set, is called after every accepted arrival with the
	// new queue length and whether the admission evicted a waiting packet
	// (Random Drop, fair queueing), which leaves the length as it was.
	// Admissions and departures are the only changes of the length: an
	// OnDepart hook reads the length after a departure from QueueLen.
	OnAdmit func(n int, evicted bool)
	// OnDrop, if set, is called for every packet the port discards —
	// queue-discipline drops and behavior line losses alike.
	OnDrop func(p *packet.Packet)
	// OnDepart, if set, is called when a packet's last bit leaves the
	// port (before the propagation delay), once it no longer counts in
	// QueueLen.
	OnDepart func(p *packet.Packet)
}

// NewPort creates a port transmitting toward dst.
func NewPort(eng *sim.Engine, cfg Config, dst Receiver) *Port {
	if cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("link: non-positive bandwidth %d on %q", cfg.Bandwidth, cfg.Name))
	}
	if dst == nil {
		panic("link: nil destination on " + cfg.Name)
	}
	pt := &Port{eng: eng, cfg: cfg, dst: dst}
	if cfg.Disc != nil {
		cfg.Disc.Bind((*discHost)(pt))
	}
	// Intern the trace location at build time so the emit path never
	// touches the name string.
	pt.obsLoc = cfg.Obs.Loc(cfg.Name)
	return pt
}

// Name returns the port's trace name.
func (pt *Port) Name() string { return pt.cfg.Name }

// QueueLen returns the current queue length in packets: the waiting
// packets plus the packet being transmitted — which occupies its buffer
// slot until its last bit is sent, the paper's convention.
func (pt *Port) QueueLen() int {
	n := pt.q.Len()
	if pt.cfg.Disc != nil {
		n = pt.cfg.Disc.Len()
	}
	if pt.inService != nil {
		n++
	}
	return n
}

// Stats returns a copy of the port counters.
func (pt *Port) Stats() Stats { return pt.stats }

// TxTime returns the serialization time of a packet of the given size on
// this port's line at its nominal bandwidth.
func (pt *Port) TxTime(sizeBytes int) time.Duration {
	return TxTime(sizeBytes, pt.cfg.Bandwidth)
}

// TxTime returns the time to serialize sizeBytes onto a line of the given
// bandwidth in bits per second.
func TxTime(sizeBytes int, bandwidth int64) time.Duration {
	bits := int64(sizeBytes) * 8
	return time.Duration(bits * int64(time.Second) / bandwidth)
}

// SetBandwidth changes the line's nominal rate. The transmission in
// progress (if any) finishes at its already-scheduled time; the new
// rate applies from the next serialization, which reads cfg.Bandwidth
// when it starts. A Behavior rate schedule still overrides per packet.
func (pt *Port) SetBandwidth(bw int64) {
	if bw <= 0 {
		panic(fmt.Sprintf("link: non-positive bandwidth %d on %q", bw, pt.cfg.Name))
	}
	pt.cfg.Bandwidth = bw
}

// Send enqueues p for transmission, applying the discipline's
// admission and overflow policy — drop-tail's when cfg.Disc is nil: an
// arrival at a full buffer (waiting plus in-service) is discarded. It
// reports whether the arriving packet was accepted.
func (pt *Port) Send(p *packet.Packet) bool {
	accepted, evicted := true, false
	switch {
	case pt.cfg.Disc != nil:
		dropped := pt.stats.Dropped
		accepted = pt.cfg.Disc.Admit(p)
		evicted = accepted && pt.stats.Dropped != dropped
	case pt.cfg.Buffer > 0 && pt.QueueLen() >= pt.cfg.Buffer:
		accepted = false
		pt.discard(p, &pt.stats.Dropped)
	default:
		pt.q.Push(p)
	}
	if accepted {
		pt.stats.Enqueued++
		if pt.cfg.Obs != nil {
			pt.cfg.Obs.Packet(obs.Enqueue, pt.eng.Now(), pt.obsLoc, p, float64(pt.QueueLen()))
		}
		if pt.OnAdmit != nil {
			pt.OnAdmit(pt.QueueLen(), evicted)
		}
	}
	if pt.inService == nil && pt.QueueLen() > 0 {
		pt.startTx()
	}
	return accepted
}

// discard counts a discarded packet in count (Stats.Dropped for the
// queue, Stats.Lost for the behavior's line losses) and, as its
// terminal owner, releases it to the pool once the drop hook has seen
// it. A line loss traces as a Drop after the packet's Transmit; the
// invariant checker classifies it like an arrival drop (the packet is
// no longer in the buffer), so conservation still holds.
func (pt *Port) discard(p *packet.Packet, count *uint64) {
	*count++
	if pt.cfg.Obs != nil {
		pt.cfg.Obs.Packet(obs.Drop, pt.eng.Now(), pt.obsLoc, p, float64(pt.QueueLen()))
	}
	if pt.OnDrop != nil {
		pt.OnDrop(p)
	}
	pt.cfg.Pool.Put(p)
}

// startTx begins serializing the packet the queue serves next, holding
// it as the in-service packet (still counted by QueueLen).
func (pt *Port) startTx() {
	head := pt.q.Pop()
	if pt.cfg.Disc != nil {
		head = pt.cfg.Disc.Dequeue()
	}
	if head == nil {
		return
	}
	pt.inService = head
	bw := pt.cfg.Bandwidth
	if pt.cfg.Behavior != nil {
		if r := pt.cfg.Behavior.Rate(pt.eng.Now()); r > 0 {
			bw = r
		}
	}
	pt.curTx = TxTime(head.Size, bw)
	if pt.cfg.Obs != nil {
		pt.cfg.Obs.Packet(obs.Dequeue, pt.eng.Now(), pt.obsLoc, head, float64(pt.QueueLen()))
	}
	pt.eng.SchedulePacket(pt.curTx, (*finishHop)(pt), nil)
}

// finishTx completes the in-progress transmission: the packet leaves
// the port, the behavior (if any) impairs it, propagation begins (a
// typed event bound to the destination, so nothing allocates), and the
// next packet (if any) starts.
func (pt *Port) finishTx() {
	p := pt.inService
	pt.inService = nil
	pt.stats.Busy += pt.curTx
	pt.stats.Transmitted++
	pt.stats.TxBytes += uint64(p.Size)
	if pt.cfg.Obs != nil {
		pt.cfg.Obs.Packet(obs.Transmit, pt.eng.Now(), pt.obsLoc, p, float64(pt.QueueLen()))
	}
	if pt.OnDepart != nil {
		pt.OnDepart(p)
	}
	if pt.cfg.Behavior != nil {
		extra, lost := pt.cfg.Behavior.Impair(p, pt.eng.Now())
		switch {
		case lost:
			pt.discard(p, &pt.stats.Lost)
		case extra > 0:
			// Jitter is its own local event leg, then the constant
			// propagation delay — in serial and sharded runs alike, so
			// the event lineage (and hence byte identity across shard
			// counts) is preserved: a cut port's edge capture happens at
			// the jittered departure time either way.
			pt.eng.SchedulePacket(extra, (*jitterHop)(pt), p)
		default:
			pt.forward(p)
		}
	} else {
		pt.forward(p)
	}
	if pt.QueueLen() > 0 {
		pt.startTx()
	}
}

// forward hands a departed packet to the propagation stage: the shard
// edge for cut links, otherwise a typed arrival event Delay later.
func (pt *Port) forward(p *packet.Packet) {
	if pt.cfg.Cross != nil {
		pt.cfg.Cross.Deliver(p)
	} else {
		pt.eng.SchedulePacket(pt.cfg.Delay, pt.dst, p)
	}
}

// Reclaim empties a port whose run has ended: the packet on the line and
// every waiting packet go back to the pool, and the transmission in
// progress never completes. A second call finds nothing to return.
func (pt *Port) Reclaim() {
	if p := pt.inService; p != nil {
		pt.inService = nil
		pt.cfg.Pool.Put(p)
	}
	for p := pt.q.Pop(); p != nil; p = pt.q.Pop() {
		pt.cfg.Pool.Put(p)
	}
	if d := pt.cfg.Disc; d != nil {
		for p := d.Dequeue(); p != nil; p = d.Dequeue() {
			pt.cfg.Pool.Put(p)
		}
	}
}

// finishHop is the Port's sim.PacketSink identity for the end of a
// transmission: the event carries no packet (the port holds it as
// inService), and the pointer conversion is free, so starting a
// transmission allocates nothing and the port holds no bound closure.
type finishHop Port

// Deliver implements sim.PacketSink.
func (fh *finishHop) Deliver(*packet.Packet) { (*Port)(fh).finishTx() }

// jitterHop is the Port's second sim.PacketSink identity: the moment a
// packet's behavior jitter has elapsed and normal propagation begins.
// The pointer conversion is free, so the jitter leg allocates nothing.
type jitterHop Port

// Deliver implements sim.PacketSink.
func (jh *jitterHop) Deliver(p *packet.Packet) {
	(*Port)(jh).forward(p)
}

// discHost is the Port's DiscHost identity: the restricted view a
// queue discipline gets of its port.
type discHost Port

// Now implements DiscHost.
func (dh *discHost) Now() time.Duration { return (*Port)(dh).eng.Now() }

// Capacity implements DiscHost.
func (dh *discHost) Capacity() int { return (*Port)(dh).cfg.Buffer }

// InService implements DiscHost.
func (dh *discHost) InService() int {
	if (*Port)(dh).inService != nil {
		return 1
	}
	return 0
}

// Drop implements DiscHost.
func (dh *discHost) Drop(p *packet.Packet) { (*Port)(dh).discard(p, &dh.stats.Dropped) }

// NominalTx implements DiscHost.
func (dh *discHost) NominalTx(sizeBytes int) time.Duration {
	return (*Port)(dh).TxTime(sizeBytes)
}
