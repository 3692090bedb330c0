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
	"math"
	"math/bits"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/topology"
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
// table memory. The table is a cache of a small compiled row (SetRow
// expands it), and it is kept on a measurement: with the limit forced to
// 0 — every switch on rows — ten alternating pairs of bench/run.sh at
// f31e2e6 read steady_events_per_s −3.1 % on paper-twoway (16.23 M →
// 15.73 M, dense wins 8–2) and −6.2 % on sweep-grid (13.26 M → 12.45 M,
// 8–2; wall_s +7.8 %, 9–1). A variable so tests can force either
// representation.
var denseRouteLimit = 64

// Row slot sentinels. Non-negative slots index Switch.ports.
const (
	// slotLocal marks an interval of hosts attached to the switch itself;
	// the port comes from the local list.
	slotLocal = topology.SlotLocal
	// slotNone marks an interval with no route. Only privately painted
	// rows contain it; a compiled row routes every host.
	slotNone = topology.SlotNone
)

// Switch forwards packets toward their destination host. Forwarding is
// instantaneous; all queueing happens in the output ports.
//
// The forwarding table has two representations. Small networks use a
// dense slice indexed by destination host ID. Everything else uses a
// topology.Row: sorted host intervals in one 32-bit word each, each
// naming a slot in the switch's own small port array — the form the
// compiled topology stores (DESIGN.md §13, §16). SetRow installs a
// compiled row by reference, so the switch is a view of the topology's
// interned row, not a copy of it: install and mid-run replacement are
// O(1) and any number of switches share one row. AddRouteRange builds
// the same structure privately, one interval at a time, for callers
// without a compiled topology.
type Switch struct {
	id    int
	table []*link.Port // dense mode; nil once a row is active

	// Row mode (row.Words != nil): interval i covers host IDs
	// [base+row.End(i-1), base+row.End(i)) and forwards through
	// row.Slot(i).
	row  topology.Row
	base int
	// owned reports that row was built by AddRouteRange and may be
	// written; a row installed by SetRow is shared and read-only.
	owned bool
	// ports[slot] is the output port of a non-negative slot; local lists
	// the attached hosts' access ports in ascending host-ID order, for
	// slotLocal intervals. Both outlive row replacement.
	ports []*link.Port
	local []hostPort

	// hot is the hot-route table in front of the row's binary search:
	// direct-mapped on the destination's low bits (a multiplicative hash
	// measured the same hit rate), so a lookup that hits touches one line
	// of the switch instead of the shared row's cold words. It
	// holds slots, not ports — a slot means the same under any row of
	// this switch's adjacency, and local slots still resolve per host —
	// belongs to the switch, never to the interned row, and caches only
	// destinations the row routes. Every change of the row goes through
	// resetHot. Nil in dense mode and over a short row.
	hot []hotRoute
}

// hotRoute caches one row lookup; key is the host ID plus one, so the
// zero value is an empty entry.
type hotRoute struct {
	key, slot int32
}

// The hot-route table is a power of two: hotPerPort entries per output
// port, at least four, at most hotMax. A hub forwards toward far more
// destinations than a leaf, which is why the size follows the degree: on
// BarabasiAlbert(2048,2) with 1000 flows a fixed 16 entries hit 70 % of
// lookups, 4 per port 87 %, 8 per port 91 % for twice the memory. A row
// of at most hotMinRuns intervals — 64 bytes of 4-byte words — gets
// none: its search ends inside one cache line that every switch
// interning the row shares, which a table per switch cannot beat — and
// on a 10⁶-switch chain that is every switch (72 bytes and an
// allocation each).
const (
	hotPerPort = 4
	hotMax     = 1 << 10
	hotMinRuns = 16
)

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
// rebuild the row. A private row packs each interval into 32 bits, its
// end beside a slot wide enough for the ports: it panics on an end
// that leaves the slots no room.
func (s *Switch) AddRouteRange(lo, hi int, out *link.Port) {
	if lo < 0 || hi < lo || hi > math.MaxInt32 {
		panic(fmt.Sprintf("switch %d: bad route range [%d,%d)", s.id, lo, hi))
	}
	if lo == hi {
		return
	}
	if s.row.Words == nil && hi <= denseRouteLimit {
		for hi > len(s.table) {
			s.table = append(s.table, nil)
		}
		for d := lo; d < hi; d++ {
			s.table[d] = out
		}
		return
	}
	if s.row.Words == nil {
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
// interval i covers host IDs [base+row.End(i-1), base+row.End(i)) (the
// first from base) and forwards through row.Slot(i) — a SetPorts index,
// or SlotLocal for a host registered with AddLocal. The row is held by
// reference and never written, so callers may share one row among any
// number of switches and goroutines; replacing a row mid-run is a
// pointer swap. A compiled topology's rows index host addresses (the
// topology's locality order, not host indices), so the hosts a switch
// forwards to from such a row carry ID base+address. A row small enough
// for the dense table (every host ID below denseRouteLimit) is expanded
// into it instead, exactly as AddRouteRange would have built it.
func (s *Switch) SetRow(base int, row topology.Row) {
	if n := base + int(row.End(row.Len()-1)); n <= denseRouteLimit {
		s.table, s.row, s.hot = make([]*link.Port, n), topology.Row{}, nil
		d := base
		for i := range row.Len() {
			for ; d < base+int(row.End(i)); d++ {
				s.table[d] = s.slotPort(row.Slot(i), d)
			}
		}
		return
	}
	s.table = nil
	s.row, s.base, s.owned = row, base, false
	s.resetHot()
}

// resetHot fits the hot-route table to the row just installed: none for
// a row short enough to search directly, otherwise an empty one of the
// size the port count calls for, reusing the old when it has that size.
func (s *Switch) resetHot() {
	if s.row.Len() <= hotMinRuns {
		s.hot = nil
		return
	}
	n := 4
	for n < hotPerPort*len(s.ports) && n < hotMax {
		n <<= 1
	}
	if len(s.hot) == n {
		clear(s.hot)
		return
	}
	s.hot = make([]hotRoute, n)
}

// migrateToRow converts the dense table to a private row.
func (s *Switch) migrateToRow() {
	s.row = topology.Row{Words: make([]uint32, 0, 4)}
	s.base, s.owned = 0, true
	for d, pt := range s.table {
		s.row = s.row.Append(int32(d)+1, s.slotFor(pt))
	}
	s.table = nil
	s.resetHot()
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

// paint replaces the routes for [lo, hi) of the private row with slot.
// Route installation is build-time work; the per-packet path is lookup.
// Row.Append merges equal-slot neighbours, so the row stays in
// canonical maximal form, and re-packs the row when a new port's slot
// outgrows its width.
func (s *Switch) paint(lo, hi, slot int32) {
	defer s.resetHot()
	last := int32(0)
	if n := s.row.Len(); n > 0 {
		last = s.row.End(n - 1)
	}
	if lo >= last {
		// In-order installation: nothing to replace, append.
		if lo > last {
			s.row = s.row.Append(lo, slotNone)
		}
		s.row = s.row.Append(hi, slot)
		return
	}
	// Rebuild: the old intervals' parts below lo, the new interval, the
	// old intervals' parts above hi. An interval's start is implicit (the
	// previous end), so the tail copies clip themselves.
	old := s.row
	s.row = topology.Row{Words: make([]uint32, 0, old.Len()+2), W: old.W}
	for i, start := 0, int32(0); start < lo; i++ {
		s.row = s.row.Append(min(old.End(i), lo), old.Slot(i))
		start = old.End(i)
	}
	s.row = s.row.Append(hi, slot)
	for i := range old.Len() {
		if old.End(i) > hi {
			s.row = s.row.Append(old.End(i), old.Slot(i))
		}
	}
}

// lookup returns the output port for dst, or nil.
func (s *Switch) lookup(dst int) *link.Port {
	if s.row.Words == nil {
		if dst < 0 || dst >= len(s.table) {
			return nil
		}
		return s.table[dst]
	}
	if uint(dst) >= math.MaxInt32 {
		return nil // rows carry int32 host IDs
	}
	var e *hotRoute
	if s.hot != nil {
		e = &s.hot[dst&(len(s.hot)-1)]
		if e.key == int32(dst)+1 {
			return s.slotPort(e.slot, dst)
		}
	}
	slot := s.row.Lookup(dst - s.base)
	if e != nil && slot != slotNone {
		*e = hotRoute{int32(dst) + 1, slot}
	}
	return s.slotPort(slot, dst)
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
// -validate); the hot path is Deliver. It is the same lookup, hot-route
// table included, so like Deliver it belongs to the goroutine running
// the switch.
func (s *Switch) Route(dst int) *link.Port {
	if dst < 0 {
		return nil
	}
	return s.lookup(dst)
}

// Deliver implements link.Receiver: look up the output port for the
// packet's destination and enqueue it there.
func (s *Switch) Deliver(p *packet.Packet) {
	if s.row.Words == nil {
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
	// eps is an open-addressed table of the endpoints attached to this
	// host, keyed by connection id: a power of two, grown at Attach to
	// stay at most three-quarters full, linear probing from a fixed
	// multiplicative hash. Connection ids are global, so indexing a slice
	// by them cost every host the highest id it terminated; the table
	// costs what the host has attached and one probe per delivery.
	eps      []endpointSlot
	epsShift uint // 64 − log₂ len(eps)
	attached int

	// received counts packets accepted by this host, for conservation
	// checks.
	received uint64

	// obs, when non-nil, receives a Deliver trace event for every packet
	// this host accepts; obsLoc is its interned location ("host0", ...).
	obs    *obs.Tracer
	obsLoc obs.Loc
}

// endpointSlot is one table entry; key is the connection id plus one,
// so the zero value is an empty slot.
type endpointSlot struct {
	key int
	ep  Handler
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
	if h.attached++; 4*h.attached > 3*len(h.eps) {
		old := h.eps
		h.eps = make([]endpointSlot, max(2, 2*len(old)))
		h.epsShift = uint(64 - bits.TrailingZeros(uint(len(h.eps))))
		for _, sl := range old {
			if sl.key != 0 {
				*h.slot(sl.key - 1) = sl
			}
		}
	}
	*h.slot(conn) = endpointSlot{conn + 1, ep}
}

// slot returns conn's table slot: the one holding it, or the empty slot
// where the probe for it ends. The table is never full.
func (h *Host) slot(conn int) *endpointSlot {
	mask := uint64(len(h.eps) - 1)
	for i := uint64(conn) * 0x9E3779B97F4A7C15 >> h.epsShift; ; i = (i + 1) & mask {
		if sl := &h.eps[i]; sl.key == conn+1 || sl.key == 0 {
			return sl
		}
	}
}

// endpoint returns the handler for conn, or nil if none is attached.
func (h *Host) endpoint(conn int) Handler {
	if conn < 0 || h.eps == nil {
		return nil
	}
	return h.slot(conn).ep
}

// Received returns the number of packets this host has accepted.
func (h *Host) Received() uint64 { return h.received }

// Deliver implements link.Receiver: after the processing delay, the
// packet is handed to its connection's endpoint. The delayed hand-off is
// a typed event bound to the host's dispatch step, so the per-packet
// path schedules no closure.
func (h *Host) Deliver(p *packet.Packet) {
	h.received++
	if h.obs != nil {
		h.obs.Packet(obs.Deliver, h.eng.Now(), h.obsLoc, p, 0)
	}
	if h.processing == 0 {
		(*hostDispatch)(h).Deliver(p)
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

// Deliver hands the processed packet to its connection's endpoint: the
// delivery's one table probe.
func (hd *hostDispatch) Deliver(p *packet.Packet) {
	h := (*Host)(hd)
	ep := h.endpoint(p.Conn)
	if ep == nil {
		panic(fmt.Sprintf("host %d: no endpoint for conn %d (%v)", h.id, p.Conn, p))
	}
	ep.Handle(p)
}

// Send transmits p out the host's port. It reports whether the packet
// was accepted by the port's buffer.
func (h *Host) Send(p *packet.Packet) bool {
	if h.out == nil {
		panic(fmt.Sprintf("host %d: no output port", h.id))
	}
	return h.out.Send(p)
}
