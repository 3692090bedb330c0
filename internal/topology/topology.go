// Package topology describes simulated networks as arbitrary graphs:
// switches joined by duplex links, hosts hanging off switches, and
// static shortest-path routes between every host pair. It generalizes
// the paper's dumbbell — which becomes the two-switch special case of
// the Chain generator — to multi-bottleneck configurations such as the
// parking lot, the workload of the congestion-wave and drop-tail
// synchronization studies that follow the paper, and (via the seeded
// BarabasiAlbert and Waxman generators) to Internet-scale random
// graphs.
//
// A Graph is purely declarative. Resolve checks it and resolves per-link
// parameter defaults (all that input validation needs); Compile goes on
// to compute per-switch forwarding tables with Dijkstra shortest paths.
// internal/core consumes the compiled form to wire hosts, switches, and
// ports, and its switches forward from the compiled rows themselves
// (Compiled.Row). Everything is deterministic: link weights
// are integer durations and every tie is broken by the lowest switch or
// link index, so the same Graph always compiles to the same routes —
// regardless of how many workers the route compiler fans out over.
//
// The compiled form is built for scale (DESIGN.md §13): adjacency is
// CSR (compressed sparse row), forwarding state is stored as sorted
// address-interval runs per switch — a host's address is its position
// in a locality order that keeps the hosts of nearby switches together
// (Skeleton.Addr) — and the per-destination Dijkstra columns are
// computed on a worker pool whose merge order is fixed by address,
// never by scheduling.
package topology

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Unbounded marks a LinkSpec or HostSpec buffer as explicitly infinite.
// (Zero means "inherit the scenario default", which itself may be
// unbounded: the scenario convention is that a non-positive default
// buffer is infinite.)
const Unbounded = -1

// LinkSpec describes one duplex link between switches A and B. Each
// direction gets its own output port with its own buffer, like the
// paper's switch lines. Zero-valued parameters inherit the scenario
// trunk defaults at Compile time.
type LinkSpec struct {
	// A and B are the switch endpoints (A != B).
	A, B int
	// Bandwidth is the line rate in bits/s; 0 inherits the default.
	Bandwidth int64
	// Delay is the propagation delay; 0 inherits the default.
	Delay time.Duration
	// Buffer is the per-direction port buffer in packets; 0 inherits the
	// default, Unbounded (-1) is explicitly infinite.
	Buffer int
}

// HostSpec attaches one host to a switch. Hosts are the endpoints
// connection specs refer to by index.
type HostSpec struct {
	// Switch is the switch the host hangs off.
	Switch int
}

// Graph is a declarative network description. The zero value is not
// usable; fill the fields or use a generator (Dumbbell, Chain,
// ParkingLot, BarabasiAlbert, Waxman).
type Graph struct {
	// Switches is the number of switches, indexed 0..Switches-1.
	Switches int
	// Links are the duplex switch-switch lines.
	Links []LinkSpec
	// Hosts lists the hosts; empty means one host per switch, host i at
	// switch i (the line topologies' convention). Large graphs should
	// place hosts sparsely — only at traffic endpoints — since routes
	// are computed toward every host's switch.
	Hosts []HostSpec
}

// Chain returns n switches in a line — switch i linked to switch i+1 —
// with one host per switch. Chain(2) is the paper's dumbbell; longer
// chains are the multi-hop configurations of §5 and the congestion-wave
// experiments. All link parameters inherit the scenario defaults.
func Chain(n int) Graph {
	g := Graph{Switches: n}
	for i := 0; i+1 < n; i++ {
		g.Links = append(g.Links, LinkSpec{A: i, B: i + 1})
	}
	return g
}

// Dumbbell returns the paper's Figure-1 topology: two switches, one
// trunk, one host per side.
func Dumbbell() Graph { return Chain(2) }

// ParkingLot returns the classic parking-lot topology: hops bottleneck
// links in a row (hops+1 switches, one host per switch). The canonical
// workload runs one long connection across every hop (host 0 → host
// hops) against one single-hop cross connection per link (host i →
// host i+1), so every trunk is a bottleneck shared by exactly two
// connections.
func ParkingLot(hops int) Graph { return Chain(hops + 1) }

// Defaults carries the scenario-level parameters that zero-valued
// LinkSpec fields inherit, plus the data packet size used for the
// routing metric's transmission-delay term.
type Defaults struct {
	// Bandwidth is the default trunk rate in bits/s.
	Bandwidth int64
	// Delay is the default trunk propagation delay.
	Delay time.Duration
	// Buffer is the default per-port buffer; <= 0 means unbounded.
	Buffer int
	// DataSize is the data packet size in bytes for the routing metric.
	DataSize int
	// Workers bounds the route-compilation worker pool: 0 uses
	// GOMAXPROCS, 1 compiles serially. The compiled routes are
	// identical for every value — the worker count only changes how
	// long Compile takes.
	Workers int
}

// Link is a compiled LinkSpec: every parameter resolved. Buffer <= 0
// means unbounded (the internal/link convention).
type Link struct {
	A, B      int
	Bandwidth int64
	Delay     time.Duration
	Buffer    int
}

// Hop identifies one output direction of one link: Dir 0 transmits
// A→B, Dir 1 transmits B→A.
type Hop struct {
	Link, Dir int
}

// local marks a forwarding-table entry whose destination host is
// attached to the switch itself.
var local = Hop{Link: -1}

// Packed hop encoding used by the CSR half-edges, the route compiler's
// columns, and the interval-run forwarding tables: link<<1 | dir, with
// negative sentinels for "destination is local" and "destination is
// unreachable".
const (
	hopLocal       = int32(-1)
	hopUnreachable = int32(-2)
)

// Size limits of the packed representations: switches are int32 indices
// in the adjacency and the route columns, a packed hop keeps link<<1|dir
// in an int32, and a forwarding row's interval ends — and the host IDs
// (index + 1) packets carry — are int32.
const (
	MaxSwitches = math.MaxInt32
	MaxLinks    = math.MaxInt32 >> 1
	MaxHosts    = math.MaxInt32 - 1
)

// CheckSize reports whether a graph with the given counts fits the
// packed representations. Generators allocate in proportion to their
// size argument, so callers holding untrusted sizes check before they
// generate; Resolve checks every graph again.
func CheckSize(switches, links, hosts int) error {
	switch {
	case switches > MaxSwitches:
		return fmt.Errorf("topology: a graph is limited to %d switches; %d is too many", MaxSwitches, switches)
	case links > MaxLinks:
		return fmt.Errorf("topology: a graph is limited to %d links; %d is too many", MaxLinks, links)
	case hosts > MaxHosts:
		return fmt.Errorf("topology: a graph is limited to %d hosts; %d is too many", MaxHosts, hosts)
	}
	return nil
}

func packHop(link, dir int) int32 { return int32(link)<<1 | int32(dir) }

func unpackHop(p int32) Hop { return Hop{Link: int(p >> 1), Dir: int(p & 1)} }

// Skeleton is a Graph with resolved link parameters, defaulted hosts
// and CSR adjacency, known to be well formed and connected — everything
// about a compiled topology except its routes. Graph.Resolve builds one
// in O(switches + links); callers that only need to validate what
// refers to a topology (link events, region covers, host indices) stop
// there instead of paying for the route compile. It is immutable.
//
// The adjacency is CSR: the half-edges of switch s occupy
// adjSw/adjHop[adjOff[s]:adjOff[s+1]], sorted by ascending link index
// (the tie-break order every deterministic scan relies on). A
// half-edge's position relative to adjOff[s] is its adjacency slot, the
// switch-relative name forwarding rows use for "out this line".
//
// Every host also has an address, its position in the locality order
// forwarding rows index (see Addr): addr[h] is host h's address, and
// hostAt[a] the host at address a.
type Skeleton struct {
	// Switches is the switch count.
	Switches int
	// Links are the resolved duplex links, in Graph order. Links is the
	// as-compiled description: ApplyLinkChange updates the routing
	// metric (Weight) but never rewrites these specs.
	Links []Link
	// Hosts are the attachment points, in Graph order (defaulted to one
	// per switch when the Graph listed none).
	Hosts []HostSpec

	// CSR adjacency: half-edge i of switch s (adjOff[s] <= i <
	// adjOff[s+1]) leads to switch adjSw[i] via packed hop adjHop[i].
	adjOff []int32
	adjSw  []int32
	adjHop []int32

	addr   []int32
	hostAt []int32
}

// Compiled is a Skeleton plus per-switch forwarding tables. Build it
// with Graph.Compile.
//
// Forwarding state is per-switch sorted address-interval rows interned
// in a shared pool (DESIGN.md §16): rowOf[s] names switch s's row, whose
// intervals forward through adjacency slots relative to s. Switches
// with identical forwarding shape — every host-less switch between two
// clusters on a chain, every same-degree leaf of a BA graph — share one
// row, so resident route bytes track the number of *distinct* rows, not
// the switch count.
type Compiled struct {
	Skeleton

	// wt[li] is link li's routing metric (Weight): precomputed at
	// Compile, updated in place by ApplyLinkChange. A down link holds
	// the downWt sentinel and is skipped by every route scan.
	wt []time.Duration
	// arcs[i] is half-edge i as Dijkstra reads it, weight included, and
	// wtSum the sum of the finite weights (at most maxDist-1). Both
	// follow wt: syncArcs rebuilds them, setWeight moves them.
	arcs  []arc
	wtSum time.Duration

	// rowOf/pool are the interned row tables: rowOf[s] is switch s's row
	// id in the pool. w is the width every row is packed at (rowWidth),
	// fixed by the graph.
	rowOf []int32
	pool  *rowPool
	w     uint

	// Lazy caches for ApplyLinkChange, shared by Clone (all immutable
	// once built): the distinct destination switches in host order with
	// the address interval of each, and per-link bridge flags.
	destSws []int32
	destIv  []addrIval
	bridge  []bool

	// last describes the most recent ApplyLinkChange call, stats the most
	// recent route compile.
	last  ChangeStats
	stats CompileStats

	// dataSize is the Defaults.DataSize the graph was compiled with,
	// retained for the Weight metric.
	dataSize int
	// workers is the compile worker bound (Defaults.Workers).
	workers int
}

// NumHosts returns the number of hosts.
func (c *Skeleton) NumHosts() int { return len(c.Hosts) }

// HostSwitch returns the switch host h is attached to.
func (c *Skeleton) HostSwitch(h int) int { return c.Hosts[h].Switch }

// Addr returns host h's address: its position in the locality order
// that forwarding rows index (Row). Switches are taken in the preorder
// of the breadth-first tree from switch 0 — a switch's parent is the
// first switch of the level above that it is linked to, its children
// come in ascending index — with any switch that tree misses rooting a
// tree of its own, in index order; the hosts of each switch then get
// consecutive addresses in ascending host index. So the hosts of a
// switch form one interval and a subtree's hosts one more, which is what
// lets a switch's forwarding intervals merge on a mesh. The order
// depends only on the links and the host placement, never on weights or
// link state. On a line of switches with its hosts in switch order — a
// chain, a parking lot, the dumbbell — Addr(h) == h.
func (c *Skeleton) Addr(h int) int { return int(c.addr[h]) }

// NextHop returns the forwarding decision at switch sw for traffic to
// host h. local reports whether the host is attached to sw itself (in
// which case the Hop is meaningless).
func (c *Compiled) NextHop(sw, h int) (hop Hop, isLocal bool) {
	e := c.edgeAt(sw, c.addr[h])
	if e < 0 {
		return local, true
	}
	return unpackHop(c.adjHop[e]), false
}

// Row hands out switch sw's forwarding row: interval i covers addresses
// [End(i-1), End(i)) (from 0; the last end is the host count) — host h
// is at Addr(h) — and forwards through adjacency slot Slot(i) of sw
// (resolve it with SlotHop) or, for SlotLocal, to a host attached to sw
// itself. Every row of c has the same width W.
//
// The words are read-only and stay valid and unchanged for as long as
// the caller holds them: an interned row is never written after it is
// created, by this Compiled or any Clone of it, whatever link changes
// follow. They are the pool's own row, so any number of holders
// (switches of a running simulation, region goroutines, scheduled link
// events) share one copy.
func (c *Compiled) Row(sw int) Row { return Row{c.pool.rows[c.rowOf[sw]], c.w} }

// Degree returns the number of adjacency slots of switch sw: one per
// link end attached to it.
func (c *Skeleton) Degree(sw int) int { return int(c.adjOff[sw+1] - c.adjOff[sw]) }

// SlotHop returns the link direction adjacency slot `slot` of switch sw
// transmits on. Slots number sw's link ends in ascending link order;
// they depend only on the graph, never on weights or link state.
func (c *Skeleton) SlotHop(sw, slot int) Hop { return unpackHop(c.adjHop[int(c.adjOff[sw])+slot]) }

// RouteRuns returns the total number of forwarding intervals across all
// switches — the size of the compressed routing state (Switches×Hosts
// only in the worst case of no adjacent hosts sharing a next hop). It
// exists for capacity diagnostics (tahoe-sim -validate, benchmarks).
func (c *Compiled) RouteRuns() int {
	runs := 0
	for _, r := range c.rowOf {
		runs += len(c.pool.rows[r])
	}
	return runs
}

// DistinctRows returns the number of distinct forwarding rows after
// interning. The ratio Switches/DistinctRows is the deduplication
// factor.
func (c *Compiled) DistinctRows() int { return c.pool.live() }

// RouteBytes returns the resident bytes of the forwarding state: the
// per-switch row ids plus every live pool row (interval data and per-row
// bookkeeping). It is the quantity the benchmark trajectory tracks as
// "route bytes per switch".
func (c *Compiled) RouteBytes() int {
	// Per live row: a 4-byte word an interval, plus the slice header,
	// refcount, hash and chain link (40 B of bookkeeping).
	const rowOverhead = 40
	b := len(c.rowOf) * 4
	for r, row := range c.pool.rows {
		if c.pool.refs[r] > 0 {
			b += len(row)*4 + rowOverhead
		}
	}
	return b
}

// Clone returns an independently mutable copy: ApplyLinkChange and
// RecomputeRoutes on the clone never disturb the original. Immutable
// state (adjacency, links, hosts, caches, and every interned row's
// interval data) is shared; only the weights (with their arc records),
// the per-switch row ids, and the pool's bookkeeping are copied.
func (c *Compiled) Clone() *Compiled {
	d := *c
	d.wt = slices.Clone(c.wt)
	d.arcs = slices.Clone(c.arcs)
	d.rowOf = slices.Clone(c.rowOf)
	d.pool = c.pool.clone()
	return &d
}

// PathHops returns the number of switch-switch links a packet from host
// src to host dst traverses. Routes cannot loop: every link weight is
// positive, so the distance to dst falls strictly at each next hop.
func (c *Compiled) PathHops(src, dst int) int {
	sw := c.Hosts[src].Switch
	hops := 0
	for {
		hop, isLocal := c.NextHop(sw, dst)
		if isLocal {
			return hops
		}
		l := c.Links[hop.Link]
		if hop.Dir == 0 {
			sw = l.B
		} else {
			sw = l.A
		}
		hops++
	}
}

// Weight returns link li's routing metric: propagation delay plus the
// transmission delay of one data packet.
func (c *Compiled) Weight(li int) time.Duration { return c.wt[li] }

// Resolve validates the graph without computing any route: it resolves
// per-link defaults and host placement, builds the adjacency, and
// checks connectivity. It reports exactly the error Compile would for
// the graph's shape — same checks, same order, same text — at
// O(switches + links) instead of one Dijkstra per destination, which is
// what makes it the right entry point for input validation. Compile
// goes on to check the row width and every link's routing weight.
func (g Graph) Resolve(def Defaults) (*Skeleton, error) {
	if g.Switches < 1 {
		return nil, fmt.Errorf("topology: need at least 1 switch, have %d", g.Switches)
	}
	hosts := len(g.Hosts)
	if hosts == 0 {
		hosts = g.Switches // one per switch
	}
	if err := CheckSize(g.Switches, len(g.Links), hosts); err != nil {
		return nil, err
	}
	c := &Skeleton{Switches: g.Switches}

	// Resolve links.
	c.Links = make([]Link, 0, len(g.Links))
	for i, ls := range g.Links {
		if ls.A < 0 || ls.A >= g.Switches || ls.B < 0 || ls.B >= g.Switches {
			return nil, fmt.Errorf("topology: link %d endpoints (%d,%d) out of range", i, ls.A, ls.B)
		}
		if ls.A == ls.B {
			return nil, fmt.Errorf("topology: link %d is a self-loop on switch %d", i, ls.A)
		}
		l := Link{A: ls.A, B: ls.B, Bandwidth: ls.Bandwidth, Delay: ls.Delay, Buffer: ls.Buffer}
		if l.Bandwidth == 0 {
			l.Bandwidth = def.Bandwidth
		}
		if l.Bandwidth <= 0 {
			return nil, fmt.Errorf("topology: link %d has no bandwidth (and no default)", i)
		}
		if l.Delay == 0 {
			l.Delay = def.Delay
		}
		switch {
		case l.Buffer == 0:
			l.Buffer = def.Buffer
		case l.Buffer < 0: // Unbounded
			l.Buffer = 0
		}
		c.Links = append(c.Links, l)
	}

	// Resolve hosts.
	c.Hosts = g.Hosts
	if len(c.Hosts) == 0 {
		c.Hosts = make([]HostSpec, g.Switches)
		for i := range c.Hosts {
			c.Hosts[i] = HostSpec{Switch: i}
		}
	}
	for h, hs := range c.Hosts {
		if hs.Switch < 0 || hs.Switch >= g.Switches {
			return nil, fmt.Errorf("topology: host %d switch %d out of range", h, hs.Switch)
		}
	}

	c.buildCSR()
	if bad := c.firstUnreached(c.Hosts[0].Switch); bad >= 0 {
		// A disconnected graph strands some switch from every host outside
		// its component, the first host included — so the route compiler's
		// first failing column is always host 0's, and its lowest
		// unreachable switch is the lowest one outside host 0's component.
		return nil, fmt.Errorf("topology: switch %d cannot reach host %d (switch %d): graph is disconnected",
			bad, 0, c.Hosts[0].Switch)
	}
	c.buildOrder()
	return c, nil
}

// buildOrder numbers the hosts in the locality order Addr describes.
func (c *Skeleton) buildOrder() {
	n := c.Switches
	// first[s] counts switch s's hosts, then holds its next address.
	first := make([]int32, n)
	for _, hs := range c.Hosts {
		first[hs.Switch]++
	}
	// Breadth first from each switch not yet reached, in index order: the
	// switches arrive in queue in visiting order, and the children of
	// queue[i] are queue[kids[i][0]:kids[i][1]], ascending. Then the
	// tree's preorder hands out the addresses.
	queue := make([]int32, 0, n)
	kids := make([][2]int32, n)
	seen := make([]bool, n)
	stack := make([]int32, 0, n) // queue positions
	next := int32(0)
	for root := range n {
		if seen[root] {
			continue
		}
		seen[root] = true
		top := int32(len(queue))
		queue = append(queue, int32(root))
		for i := int(top); i < len(queue); i++ {
			u, lo := queue[i], len(queue)
			for e := c.adjOff[u]; e < c.adjOff[u+1]; e++ {
				if v := c.adjSw[e]; !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
			slices.Sort(queue[lo:])
			kids[i] = [2]int32{int32(lo), int32(len(queue))}
		}
		for stack = append(stack[:0], top); len(stack) > 0; {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := queue[i]
			first[s], next = next, next+first[s]
			for k := kids[i][1] - 1; k >= kids[i][0]; k-- {
				stack = append(stack, k)
			}
		}
	}
	c.addr = make([]int32, len(c.Hosts))
	c.hostAt = make([]int32, len(c.Hosts))
	for h, hs := range c.Hosts {
		a := first[hs.Switch]
		first[hs.Switch]++
		c.addr[h], c.hostAt[a] = a, int32(h)
	}
}

// firstUnreached returns the lowest-index switch with no path to
// switch from, or -1 when the graph is connected.
func (c *Skeleton) firstUnreached(from int) int {
	seen := make([]bool, c.Switches)
	seen[from] = true
	stack := []int32{int32(from)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := c.adjOff[u]; i < c.adjOff[u+1]; i++ {
			if v := c.adjSw[i]; !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for s, ok := range seen {
		if !ok {
			return s
		}
	}
	return -1
}

// Compile validates the graph, resolves per-link defaults, and computes
// shortest-path forwarding tables. The metric is propagation plus
// data-packet transmission delay per link; ties are broken
// deterministically by the lowest link index when choosing among
// equal-cost next hops (Dijkstra's final distances are themselves
// visit-order independent, so no sweep-order tie-break is needed).
// Compile refuses a link whose weight is 0: with every weight positive,
// the distance to a destination falls strictly at each next hop, so no
// route can loop. The routes are the compiler's alone.
func (g Graph) Compile(def Defaults) (*Compiled, error) {
	sk, err := g.Resolve(def)
	if err != nil {
		return nil, err
	}
	if def.DataSize <= 0 {
		def.DataSize = 500
	}
	c := &Compiled{Skeleton: *sk, dataSize: def.DataSize, workers: def.Workers}
	widest := 0
	for s := 1; s < c.Switches; s++ {
		if c.Degree(s) > c.Degree(widest) {
			widest = s
		}
	}
	if c.w, err = rowWidth(len(c.Hosts), widest, c.Degree(widest)); err != nil {
		return nil, err
	}
	bits := int64(c.dataSize) * 8
	if bits > math.MaxInt64/int64(time.Second) {
		return nil, fmt.Errorf("topology: data size %d bytes: its transmission time overflows the routing metric", c.dataSize)
	}
	c.wt = make([]time.Duration, len(c.Links))
	for li, l := range c.Links {
		if l.Delay < 0 {
			return nil, fmt.Errorf("topology: link %d: negative Delay %v", li, l.Delay)
		}
		tx := time.Duration(bits * int64(time.Second) / l.Bandwidth)
		if l.Delay > maxDist-1-tx {
			return nil, fmt.Errorf("topology: link %d: delay %v plus transmission time %v is not a routing weight in [1ns, %v]", li, l.Delay, tx, maxDist-1)
		}
		// A weight of 0 would tie a switch with its neighbour, and the
		// tie-break could then route each through the other.
		if l.Delay+tx == 0 {
			return nil, fmt.Errorf("topology: link %d (switch %d - switch %d) has routing weight 0 (no delay, and a %d-byte packet takes 0s at %d bit/s): every link weight must be positive",
				li, l.A, l.B, c.dataSize, l.Bandwidth)
		}
		c.wt[li] = l.Delay + tx
	}
	if err := c.computeRoutes(); err != nil {
		return nil, err
	}
	return c, nil
}

// buildCSR fills the half-edge arrays. Links are visited in index
// order, so each switch's half-edges come out sorted by ascending link
// index — the order every deterministic tie-break scan depends on.
func (c *Skeleton) buildCSR() {
	c.adjOff = make([]int32, c.Switches+1)
	for _, l := range c.Links {
		c.adjOff[l.A+1]++
		c.adjOff[l.B+1]++
	}
	for i := 0; i < c.Switches; i++ {
		c.adjOff[i+1] += c.adjOff[i]
	}
	c.adjSw = make([]int32, 2*len(c.Links))
	c.adjHop = make([]int32, 2*len(c.Links))
	cur := make([]int32, c.Switches)
	copy(cur, c.adjOff[:c.Switches])
	for li, l := range c.Links {
		i := cur[l.A]
		cur[l.A]++
		c.adjSw[i] = int32(l.B)
		c.adjHop[i] = packHop(li, 0)
		i = cur[l.B]
		cur[l.B]++
		c.adjSw[i] = int32(l.A)
		c.adjHop[i] = packHop(li, 1)
	}
}

// slotOf maps a packed hop usable at switch s to its adjacency slot
// (hopLocal maps to SlotLocal). The half-edges of a switch are sorted
// by ascending link index, and both directions of one link never meet
// at a switch, so adjHop is strictly ascending per switch — binary
// search applies.
func (c *Skeleton) slotOf(s int, p int32) int32 {
	if p < 0 {
		return SlotLocal
	}
	lo, hi := c.adjOff[s], c.adjOff[s+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		switch {
		case c.adjHop[mid] < p:
			lo = mid + 1
		case c.adjHop[mid] > p:
			hi = mid
		default:
			return mid - c.adjOff[s]
		}
	}
	panic("topology: hop not adjacent to switch")
}

// edgeLocal is edgeAt's answer where the host is attached to the switch.
const edgeLocal = int32(-1)

// edgeAt returns the forwarding decision at switch sw for the host at
// address a as an index into the CSR half-edge arrays — adjSw gives the
// next switch, adjHop the packed hop — or edgeLocal when the host is
// attached to sw.
func (c *Compiled) edgeAt(sw int, a int32) int32 {
	sl := c.Row(sw).Lookup(int(a))
	if sl < 0 {
		return edgeLocal
	}
	return c.adjOff[sw] + sl
}
