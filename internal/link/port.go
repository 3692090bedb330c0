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
	// Name identifies the port in traces, e.g. "sw1->sw2". The port does
	// not keep it: NewPort reads it to intern the trace location when Obs
	// is set, and a caller that needs no trace may leave it empty.
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
	// drop hook, SetOnDrop, has observed it). See packet.Pool for the
	// ownership protocol.
	Pool *packet.Pool
	// Obs, when non-nil, receives structured trace events (enqueue,
	// dequeue, transmit, drop) at this port, tagged with its Name.
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
//
// A Port holds what every hop reads — 144 bytes, its own size class —
// and points to a side struct for the rest: the discipline, the
// behavior, the tracer, the shard edge, the hooks and the line-loss
// count. A plain drop-tail port, most ports of a large network, has no
// side struct, and each step of the hot path tests that one pointer
// before anything else.
type Port struct {
	eng *sim.Engine
	dst Receiver
	// q holds a drop-tail port's waiting packets (empty with a Disc);
	// inService is the packet on the line, nil while the line is idle.
	q         packet.Queue
	inService *packet.Packet
	// curTx is the serialization time of the transmission in progress.
	curTx time.Duration

	bandwidth int64
	delay     time.Duration
	buffer    int
	pool      *packet.Pool

	busy                                    time.Duration
	transmitted, txBytes, enqueued, dropped uint64

	// x is nil on a plain drop-tail port.
	x *side
}

// side is the part of a Port that a plain drop-tail port does not
// have: made at construction when the Config sets a Disc, Behavior, Obs
// or Cross, or by the first hook setter.
type side struct {
	disc     Disc
	behavior Behavior
	obs      *obs.Tracer
	// obsLoc is the port's interned trace location (0 when obs is nil,
	// in which case it is never read).
	obsLoc obs.Loc
	cross  sim.PacketSink
	lost   uint64

	onAdmit  func(n int, evicted bool)
	onDrop   func(p *packet.Packet)
	onDepart func(p *packet.Packet)
}

// NewPort creates a port transmitting toward dst. The port keeps no
// name: cfg.Name is read here only to intern the trace location when
// cfg.Obs is set, and to name the port in a construction panic.
func NewPort(eng *sim.Engine, cfg Config, dst Receiver) *Port {
	if cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("link: non-positive bandwidth %d on %q", cfg.Bandwidth, cfg.Name))
	}
	if dst == nil {
		panic("link: nil destination on " + cfg.Name)
	}
	pt := &Port{eng: eng, dst: dst, bandwidth: cfg.Bandwidth, delay: cfg.Delay, buffer: cfg.Buffer, pool: cfg.Pool}
	if cfg.Disc != nil || cfg.Behavior != nil || cfg.Obs != nil || cfg.Cross != nil {
		pt.x = &side{disc: cfg.Disc, behavior: cfg.Behavior, obs: cfg.Obs, cross: cfg.Cross}
		if cfg.Disc != nil {
			cfg.Disc.Bind((*discHost)(pt))
		}
		// Intern the trace location at build time so the emit path never
		// touches the name string.
		pt.x.obsLoc = cfg.Obs.Loc(cfg.Name)
	}
	return pt
}

// sideOf returns pt's side struct, making it on first use.
func (pt *Port) sideOf() *side {
	if pt.x == nil {
		pt.x = new(side)
	}
	return pt.x
}

// SetOnAdmit sets the hook called after every accepted arrival with the
// new queue length and whether the admission evicted a waiting packet
// (Random Drop, fair queueing), which leaves the length as it was.
// Admissions and departures are the only changes of the length: an
// departure hook reads the length after a departure from QueueLen. It
// returns the hook it replaces, so a caller can wrap it.
func (pt *Port) SetOnAdmit(f func(n int, evicted bool)) (prev func(n int, evicted bool)) {
	x := pt.sideOf()
	prev, x.onAdmit = x.onAdmit, f
	return prev
}

// SetOnDrop sets the hook called for every packet the port discards —
// queue-discipline drops and behavior line losses alike — before the
// packet goes back to the pool. It returns the hook it replaces.
func (pt *Port) SetOnDrop(f func(p *packet.Packet)) (prev func(p *packet.Packet)) {
	x := pt.sideOf()
	prev, x.onDrop = x.onDrop, f
	return prev
}

// SetOnDepart sets the hook called when a packet's last bit leaves the
// port (before the propagation delay), once it no longer counts in
// QueueLen. It returns the hook it replaces.
func (pt *Port) SetOnDepart(f func(p *packet.Packet)) (prev func(p *packet.Packet)) {
	x := pt.sideOf()
	prev, x.onDepart = x.onDepart, f
	return prev
}

// QueueLen returns the current queue length in packets: the waiting
// packets plus the packet being transmitted — which occupies its buffer
// slot until its last bit is sent, the paper's convention.
func (pt *Port) QueueLen() int { return pt.queued(pt.x) }

// queued is QueueLen for the port's side struct x (pt.x, nil or not),
// which the per-packet paths already hold: reading x.disc from there,
// not pt.x.disc, costs what one field of the port would.
func (pt *Port) queued(x *side) int {
	n := pt.q.Len()
	if x != nil && x.disc != nil {
		n = x.disc.Len()
	}
	if pt.inService != nil {
		n++
	}
	return n
}

// Stats returns a copy of the port counters.
func (pt *Port) Stats() Stats {
	st := Stats{Busy: pt.busy, Transmitted: pt.transmitted, TxBytes: pt.txBytes, Dropped: pt.dropped, Enqueued: pt.enqueued}
	if pt.x != nil {
		st.Lost = pt.x.lost
	}
	return st
}

// TxTime returns the serialization time of a packet of the given size on
// this port's line at its nominal bandwidth.
func (pt *Port) TxTime(sizeBytes int) time.Duration {
	return TxTime(sizeBytes, pt.bandwidth)
}

// TxTime returns the time to serialize sizeBytes onto a line of the given
// bandwidth in bits per second.
func TxTime(sizeBytes int, bandwidth int64) time.Duration {
	bits := int64(sizeBytes) * 8
	return time.Duration(bits * int64(time.Second) / bandwidth)
}

// SetBandwidth changes the line's nominal rate. The transmission in
// progress (if any) finishes at its already-scheduled time; the new
// rate applies from the next serialization, which reads the bandwidth
// when it starts. A Behavior rate schedule still overrides per packet.
func (pt *Port) SetBandwidth(bw int64) {
	if bw <= 0 {
		panic(fmt.Sprintf("link: non-positive bandwidth %d", bw))
	}
	pt.bandwidth = bw
}

// Send enqueues p for transmission, applying the discipline's
// admission and overflow policy — drop-tail's without a Disc: an
// arrival at a full buffer (waiting plus in-service) is discarded. It
// reports whether the arriving packet was accepted.
func (pt *Port) Send(p *packet.Packet) bool {
	if pt.x == nil {
		if pt.buffer > 0 && pt.queued(nil) >= pt.buffer {
			pt.discard(p, &pt.dropped)
			return false
		}
		pt.q.Push(p)
		pt.enqueued++
		if pt.inService == nil {
			pt.startTx()
		}
		return true
	}
	x := pt.x
	accepted, evicted := true, false
	switch {
	case x.disc != nil:
		dropped := pt.dropped
		accepted = x.disc.Admit(p)
		evicted = accepted && pt.dropped != dropped
	case pt.buffer > 0 && pt.queued(x) >= pt.buffer:
		accepted = false
		pt.discard(p, &pt.dropped)
	default:
		pt.q.Push(p)
	}
	if accepted {
		pt.enqueued++
		if x.obs != nil {
			x.obs.Packet(obs.Enqueue, pt.eng.Now(), x.obsLoc, p, float64(pt.queued(x)))
		}
		if x.onAdmit != nil {
			x.onAdmit(pt.queued(x), evicted)
		}
	}
	if pt.inService == nil && pt.queued(x) > 0 {
		pt.startTx()
	}
	return accepted
}

// discard counts a discarded packet in count (the dropped counter for
// the queue, the side struct's lost counter for the behavior's line
// losses) and, as its terminal owner, releases it to the pool once the
// drop hook has seen it. A line loss traces as a Drop after the
// packet's Transmit; the invariant checker classifies it like an
// arrival drop (the packet is no longer in the buffer), so conservation
// still holds.
func (pt *Port) discard(p *packet.Packet, count *uint64) {
	*count++
	if x := pt.x; x != nil {
		if x.obs != nil {
			x.obs.Packet(obs.Drop, pt.eng.Now(), x.obsLoc, p, float64(pt.queued(x)))
		}
		if x.onDrop != nil {
			x.onDrop(p)
		}
	}
	pt.pool.Put(p)
}

// startTx begins serializing the packet the queue serves next, holding
// it as the in-service packet (still counted by QueueLen).
func (pt *Port) startTx() {
	x := pt.x
	if x == nil {
		head := pt.q.Pop()
		if head == nil {
			return
		}
		pt.inService = head
		pt.curTx = TxTime(head.Size, pt.bandwidth)
		pt.eng.SchedulePacket(pt.curTx, (*finishHop)(pt), nil)
		return
	}
	head := pt.q.Pop()
	if x.disc != nil {
		head = x.disc.Dequeue()
	}
	if head == nil {
		return
	}
	pt.inService = head
	bw := pt.bandwidth
	if x.behavior != nil {
		if r := x.behavior.Rate(pt.eng.Now()); r > 0 {
			bw = r
		}
	}
	pt.curTx = TxTime(head.Size, bw)
	if x.obs != nil {
		x.obs.Packet(obs.Dequeue, pt.eng.Now(), x.obsLoc, head, float64(pt.queued(x)))
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
	pt.busy += pt.curTx
	pt.transmitted++
	pt.txBytes += uint64(p.Size)
	x := pt.x
	if x == nil {
		pt.eng.SchedulePacket(pt.delay, pt.dst, p)
	} else {
		if x.obs != nil {
			x.obs.Packet(obs.Transmit, pt.eng.Now(), x.obsLoc, p, float64(pt.queued(x)))
		}
		if x.onDepart != nil {
			x.onDepart(p)
		}
		if x.behavior == nil {
			pt.forward(p)
		} else if extra, lost := x.behavior.Impair(p, pt.eng.Now()); lost {
			pt.discard(p, &x.lost)
		} else if extra > 0 {
			// Jitter is its own local event leg, then the constant
			// propagation delay — in serial and sharded runs alike, so
			// the event lineage (and hence byte identity across shard
			// counts) is preserved: a cut port's edge capture happens at
			// the jittered departure time either way.
			pt.eng.SchedulePacket(extra, (*jitterHop)(pt), p)
		} else {
			pt.forward(p)
		}
	}
	if pt.queued(x) > 0 {
		pt.startTx()
	}
}

// forward hands a departed packet to the propagation stage: the shard
// edge for cut links, otherwise a typed arrival event Delay later.
func (pt *Port) forward(p *packet.Packet) {
	if pt.x == nil || pt.x.cross == nil {
		pt.eng.SchedulePacket(pt.delay, pt.dst, p)
		return
	}
	pt.x.cross.Deliver(p)
}

// Reclaim empties a port whose run has ended: the packet on the line and
// every waiting packet go back to the pool, and the transmission in
// progress never completes. A second call finds nothing to return.
func (pt *Port) Reclaim() {
	if p := pt.inService; p != nil {
		pt.inService = nil
		pt.pool.Put(p)
	}
	for p := pt.q.Pop(); p != nil; p = pt.q.Pop() {
		pt.pool.Put(p)
	}
	if pt.x != nil && pt.x.disc != nil {
		d := pt.x.disc
		for p := d.Dequeue(); p != nil; p = d.Dequeue() {
			pt.pool.Put(p)
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
func (dh *discHost) Capacity() int { return dh.buffer }

// InService implements DiscHost.
func (dh *discHost) InService() int {
	if (*Port)(dh).inService != nil {
		return 1
	}
	return 0
}

// Drop implements DiscHost.
func (dh *discHost) Drop(p *packet.Packet) { (*Port)(dh).discard(p, &dh.dropped) }

// NominalTx implements DiscHost.
func (dh *discHost) NominalTx(sizeBytes int) time.Duration {
	return (*Port)(dh).TxTime(sizeBytes)
}
