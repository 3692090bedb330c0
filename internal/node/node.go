// Package node implements the network elements of the paper's topology:
// switches that forward packets between ports, and hosts that terminate
// TCP connections.
//
// Per §2.2 of the paper, each switch has one FIFO drop-tail buffer per
// outgoing line with no sharing, and each host charges a fixed processing
// time (0.1 ms) to every data or ACK packet it receives before handing it
// to the transport endpoint.
package node

import (
	"fmt"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// Handler consumes packets addressed to a TCP endpoint. Both ends of a
// connection implement it: the sender handles ACKs, the receiver handles
// data.
type Handler interface {
	Handle(p *packet.Packet)
}

// denseRouteLimit is the highest destination host ID kept in a switch's
// dense forwarding slice. Small networks — the paper's dumbbell, every
// shipped scenario — stay on the direct-index table, so the per-packet
// lookup there is still just a bounds check. Beyond it the switch
// forwards from a sorted interval row (binary-search lookup), which is
// what keeps 10⁵-host networks from paying hosts×switches pointers of
// table memory. A variable so tests can force either representation.
var denseRouteLimit = 64

// Row slot sentinels. Non-negative slots index Switch.ports.
const (
	// slotLocal marks an interval of hosts attached to the switch itself
	// (topology's slotLocal); the port comes from the local list.
	slotLocal = int32(-1)
	// slotNone marks an interval with no route. Only privately painted
	// rows contain it; a compiled row routes every host.
	slotNone = int32(-2)
)

// Switch forwards packets toward their destination host. Forwarding is
// instantaneous; all queueing happens in the output ports.
//
// The forwarding table has two representations. Small networks use a
// dense slice indexed by destination host ID. Everything else uses a
// row: sorted host intervals, each naming a slot in the switch's own
// small port array — the form the compiled topology stores (DESIGN.md
// §13, §16). SetRow installs a compiled row by reference, so the switch
// is a view of the topology's interned row, not a copy of it: install
// and mid-run replacement are O(1) and any number of switches share one
// row. AddRouteRange builds the same structure privately, one interval
// at a time, for callers without a compiled topology.
type Switch struct {
	id    int
	table []*link.Port // dense mode; nil once a row is active

	// Row mode (ends != nil): interval i covers host IDs
	// [base+ends[i-1], base+ends[i]) and forwards through slots[i].
	ends, slots []int32
	base        int
	// owned reports that ends/slots were built by AddRouteRange and may
	// be written; a row installed by SetRow is shared and read-only.
	owned bool
	// ports[slot] is the output port of a non-negative slot; local lists
	// the attached hosts' access ports in ascending host-ID order, for
	// slotLocal intervals. Both outlive row replacement.
	ports []*link.Port
	local []hostPort
}

// hostPort is the access port toward one attached host.
type hostPort struct {
	host int
	port *link.Port
}

// NewSwitch returns a switch with an empty forwarding table.
func NewSwitch(id int) *Switch {
	return &Switch{id: id}
}

// ID returns the switch identifier.
func (s *Switch) ID() int { return s.id }

// AddRoute directs packets destined for host dst out the given port,
// replacing any previous route for dst.
func (s *Switch) AddRoute(dst int, out *link.Port) {
	if dst < 0 {
		panic(fmt.Sprintf("switch %d: negative route destination %d", s.id, dst))
	}
	s.AddRouteRange(dst, dst+1, out)
}

// AddRouteRange directs packets destined for any host in [lo, hi) out
// the given port, replacing previous routes in the interval. Intervals
// installed in ascending order append in O(1); out-of-order ones
// rebuild the row.
func (s *Switch) AddRouteRange(lo, hi int, out *link.Port) {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("switch %d: bad route range [%d,%d)", s.id, lo, hi))
	}
	if lo == hi {
		return
	}
	if s.ends == nil && hi <= denseRouteLimit {
		for hi > len(s.table) {
			s.table = append(s.table, nil)
		}
		for d := lo; d < hi; d++ {
			s.table[d] = out
		}
		return
	}
	if s.ends == nil {
		s.migrateToRow()
	}
	if !s.owned {
		panic(fmt.Sprintf("switch %d: AddRouteRange on a shared row", s.id))
	}
	s.paint(int32(lo), int32(hi), s.slotFor(out))
}

// SetPorts gives the switch the output ports that rows installed by
// SetRow refer to: ports[i] transmits on adjacency slot i. The switch
// keeps the slice.
func (s *Switch) SetPorts(ports []*link.Port) { s.ports = ports }

// AddLocal registers the access port toward attached host id, the port
// a row's local intervals resolve to. Hosts must be added in ascending
// id order.
func (s *Switch) AddLocal(id int, port *link.Port) {
	if n := len(s.local); n > 0 && s.local[n-1].host >= id {
		panic(fmt.Sprintf("switch %d: local host %d added after host %d", s.id, id, s.local[n-1].host))
	}
	s.local = append(s.local, hostPort{id, port})
}

// SetRow replaces the whole forwarding table with a compiled row:
// interval i covers host IDs [base+ends[i-1], base+ends[i]) (the first
// from base) and forwards through slots[i] — a SetPorts index, or -1
// for a host registered with AddLocal. The row is held by reference and
// never written, so callers may share one row among any number of
// switches and goroutines; replacing a row mid-run is a pointer swap.
// A row small enough for the dense table (every host ID below
// denseRouteLimit) is expanded into it instead, exactly as
// AddRouteRange would have built it.
func (s *Switch) SetRow(base int, ends, slots []int32) {
	if n := base + int(ends[len(ends)-1]); n <= denseRouteLimit {
		s.table, s.ends, s.slots = make([]*link.Port, n), nil, nil
		d := base
		for i, end := range ends {
			for ; d < base+int(end); d++ {
				s.table[d] = s.slotPort(slots[i], d)
			}
		}
		return
	}
	s.table = nil
	s.ends, s.slots, s.base, s.owned = ends, slots, base, false
}

// migrateToRow converts the dense table to a private row.
func (s *Switch) migrateToRow() {
	s.ends, s.slots = make([]int32, 0, 4), make([]int32, 0, 4)
	s.base, s.owned = 0, true
	for d, pt := range s.table {
		s.appendRun(int32(d)+1, s.slotFor(pt))
	}
	s.table = nil
}

// slotFor returns the ports index of out, adding it on first use; a nil
// port is "no route".
func (s *Switch) slotFor(out *link.Port) int32 {
	if out == nil {
		return slotNone
	}
	for i, pt := range s.ports {
		if pt == out {
			return int32(i)
		}
	}
	s.ports = append(s.ports, out)
	return int32(len(s.ports) - 1)
}

// appendRun extends the private row to end through slot, merging with
// an equal-slot last interval so the row stays in canonical maximal
// form.
func (s *Switch) appendRun(end, slot int32) {
	if n := len(s.slots); n > 0 && s.slots[n-1] == slot {
		s.ends[n-1] = end
		return
	}
	s.ends = append(s.ends, end)
	s.slots = append(s.slots, slot)
}

// paint replaces the routes for [lo, hi) of the private row with slot.
// Route installation is build-time work; the per-packet path is lookup.
func (s *Switch) paint(lo, hi, slot int32) {
	last := int32(0)
	if n := len(s.ends); n > 0 {
		last = s.ends[n-1]
	}
	if lo >= last {
		// In-order installation: nothing to replace, append.
		if lo > last {
			s.appendRun(lo, slotNone)
		}
		s.appendRun(hi, slot)
		return
	}
	// Rebuild: the old intervals' parts below lo, the new interval, the
	// old intervals' parts above hi. An interval's start is implicit (the
	// previous end), so the tail copies clip themselves.
	oldEnds, oldSlots := s.ends, s.slots
	s.ends = make([]int32, 0, len(oldEnds)+2)
	s.slots = make([]int32, 0, len(oldEnds)+2)
	for i, start := 0, int32(0); start < lo; i++ {
		s.appendRun(min(oldEnds[i], lo), oldSlots[i])
		start = oldEnds[i]
	}
	s.appendRun(hi, slot)
	for i, end := range oldEnds {
		if end > hi {
			s.appendRun(end, oldSlots[i])
		}
	}
}

// lookup returns the output port for dst, or nil.
func (s *Switch) lookup(dst int) *link.Port {
	if s.ends == nil {
		if dst < 0 || dst >= len(s.table) {
			return nil
		}
		return s.table[dst]
	}
	ends := s.ends
	h := dst - s.base
	lo, hi := 0, len(ends)-1
	if h < 0 || h >= int(ends[hi]) {
		return nil
	}
	// First interval whose end exceeds h; the last one's does.
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(ends[mid]) > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return s.slotPort(s.slots[lo], dst)
}

// slotPort resolves a row slot to the port host dst leaves on, or nil.
func (s *Switch) slotPort(slot int32, dst int) *link.Port {
	switch {
	case slot >= 0:
		return s.ports[slot]
	case slot == slotLocal:
		return s.localPort(dst)
	}
	return nil
}

// localPort returns the access port toward attached host id, or nil.
func (s *Switch) localPort(id int) *link.Port {
	lo, hi := 0, len(s.local)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.local[mid].host < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.local) && s.local[lo].host == id {
		return s.local[lo].port
	}
	return nil
}

// Route returns the output port for host dst, or nil if none is set.
// It exists for forwarding-table inspection (tests, tahoe-sim
// -validate); the hot path is Deliver.
func (s *Switch) Route(dst int) *link.Port {
	if dst < 0 {
		return nil
	}
	return s.lookup(dst)
}

// Deliver implements link.Receiver: look up the output port for the
// packet's destination and enqueue it there.
func (s *Switch) Deliver(p *packet.Packet) {
	if s.ends == nil {
		// Dense fast path: identical to the historical per-packet cost.
		if p.Dst < 0 || p.Dst >= len(s.table) || s.table[p.Dst] == nil {
			panic(fmt.Sprintf("switch %d: no route to host %d for %v", s.id, p.Dst, p))
		}
		s.table[p.Dst].Send(p)
		return
	}
	out := s.lookup(p.Dst)
	if out == nil {
		panic(fmt.Sprintf("switch %d: no route to host %d for %v", s.id, p.Dst, p))
	}
	out.Send(p)
}

// Host terminates TCP connections. Incoming packets are charged the
// host processing time before reaching their endpoint; outgoing packets
// go straight to the host's output port.
type Host struct {
	eng        *sim.Engine
	id         int
	out        *link.Port
	processing time.Duration
	// endpoints is indexed by connection id. Connection ids are small
	// dense integers, so a slice keeps the per-packet dispatch a bounds
	// check instead of a map probe.
	endpoints []Handler

	// received counts packets accepted by this host, for conservation
	// checks.
	received uint64

	// obs, when non-nil, receives a Deliver trace event for every packet
	// this host accepts; obsLoc is its interned location ("host0", ...).
	obs    *obs.Tracer
	obsLoc obs.Loc
}

// NewHost returns a host with the given per-packet processing delay.
// Attach endpoints and set the output port before delivering traffic.
func NewHost(eng *sim.Engine, id int, processing time.Duration) *Host {
	return &Host{
		eng:        eng,
		id:         id,
		processing: processing,
	}
}

// ID returns the host identifier used in packet Src/Dst fields.
func (h *Host) ID() int { return h.id }

// SetOutput attaches the host's output port (toward its switch).
func (h *Host) SetOutput(out *link.Port) { h.out = out }

// SetObs attaches a tracer to the host; arriving packets then emit
// Deliver events at the named location. Call before the run starts.
func (h *Host) SetObs(t *obs.Tracer, name string) {
	h.obs = t
	h.obsLoc = t.Loc(name)
}

// Attach registers the endpoint that handles packets of connection conn
// arriving at this host.
func (h *Host) Attach(conn int, ep Handler) {
	if conn < 0 {
		panic(fmt.Sprintf("host %d: negative conn id %d", h.id, conn))
	}
	if h.endpoint(conn) != nil {
		panic(fmt.Sprintf("host %d: endpoint for conn %d already attached", h.id, conn))
	}
	if conn >= len(h.endpoints) {
		// Conn IDs are global, so a host that terminates connection k
		// indexes straight to k even when it handles few connections:
		// grow to the target in one step rather than element-wise.
		h.endpoints = append(h.endpoints, make([]Handler, conn+1-len(h.endpoints))...)
	}
	h.endpoints[conn] = ep
}

// endpoint returns the handler for conn, or nil if none is attached.
func (h *Host) endpoint(conn int) Handler {
	if conn < 0 || conn >= len(h.endpoints) {
		return nil
	}
	return h.endpoints[conn]
}

// Received returns the number of packets this host has accepted.
func (h *Host) Received() uint64 { return h.received }

// Deliver implements link.Receiver: after the processing delay, the
// packet is handed to its connection's endpoint. The delayed hand-off is
// a typed event bound to the host's dispatch step, so the per-packet
// path schedules no closure.
func (h *Host) Deliver(p *packet.Packet) {
	if h.endpoint(p.Conn) == nil {
		panic(fmt.Sprintf("host %d: no endpoint for conn %d (%v)", h.id, p.Conn, p))
	}
	h.received++
	if h.obs != nil {
		h.obs.Packet(obs.Deliver, h.eng.Now(), h.obsLoc, p, 0)
	}
	if h.processing == 0 {
		h.endpoints[p.Conn].Handle(p)
		return
	}
	h.eng.SchedulePacket(h.processing, (*hostDispatch)(h), p)
}

// hostDispatch is the Host's second sim.PacketSink identity: the
// endpoint hand-off that runs once the processing delay has elapsed.
// (Host.Deliver itself is the first — the arrival from the wire.) The
// pointer conversion is free, so scheduling the dispatch allocates
// nothing.
type hostDispatch Host

// Deliver hands the processed packet to its connection's endpoint.
func (hd *hostDispatch) Deliver(p *packet.Packet) {
	h := (*Host)(hd)
	h.endpoints[p.Conn].Handle(p)
}

// Send transmits p out the host's port. It reports whether the packet
// was accepted by the port's buffer.
func (h *Host) Send(p *packet.Packet) bool {
	if h.out == nil {
		panic(fmt.Sprintf("host %d: no output port", h.id))
	}
	return h.out.Send(p)
}
