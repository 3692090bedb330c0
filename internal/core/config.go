// Package core assembles the paper's network configurations and runs
// them: it is the reproduction's scenario engine. A scenario is a
// network topology — by default a line of switches (two for the
// Figure-1 dumbbell, four for the §5 topology from [19]) with one host
// per switch, or any graph described by Config.Topology — plus a set of
// TCP connections between hosts and a measurement window. Running a
// scenario yields the traces and statistics the paper's figures are
// drawn from.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/tstore"
)

// defaultShards is the shard count used when Config.Shards is zero.
// SetDefaultShards overrides it, so the CLIs' -shards can switch whole
// runs to sharded execution without threading a parameter through every
// config an experiment builds.
var defaultShards = 1

// SetDefaultShards sets the shard count applied to configs that leave
// Shards zero. Values below 1 reset to 1 (serial). Set it at process
// start, not concurrently with runs.
func SetDefaultShards(n int) {
	if n < 1 {
		n = 1
	}
	defaultShards = n
}

// Paper parameter defaults (§2.2).
const (
	// DefaultTrunkBandwidth is the bottleneck line rate: 50 Kbps.
	DefaultTrunkBandwidth int64 = 50_000
	// DefaultAccessBandwidth is the host-switch line rate: 10 Mbps.
	DefaultAccessBandwidth int64 = 10_000_000
	// DefaultAccessDelay is the host-switch propagation delay: 0.1 ms.
	DefaultAccessDelay = 100 * time.Microsecond
	// DefaultHostProcessing is the per-packet host processing time: 0.1 ms.
	DefaultHostProcessing = 100 * time.Microsecond
	// DefaultDataSize is the data packet size: 500 bytes.
	DefaultDataSize = 500
	// DefaultAckSize is the ACK packet size: 50 bytes.
	DefaultAckSize = 50
	// DefaultMaxWnd is the receiver-advertised window: 1000 packets
	// (never binding in the paper's runs, where cwnd stays below 50).
	DefaultMaxWnd = 1000
	// DefaultBuffer is the switch buffer used in most configurations.
	DefaultBuffer = 20
)

// Source kinds for SourceSpec.Kind.
const (
	// SourceTCP is the default TCP Tahoe endpoint pair (equivalent to a
	// nil SourceSpec).
	SourceTCP = "tcp"
	// SourceCBR is a constant-bit-rate unresponsive source (UDP-like
	// cross-traffic) feeding a counting sink.
	SourceCBR = "cbr"
	// SourceOnOff is an exponential on/off source (telnet-like
	// intermittent traffic) feeding a counting sink.
	SourceOnOff = "onoff"
)

// SourceSpec replaces a connection's TCP endpoints with a non-TCP
// traffic generator (internal/node sources). The connection then has
// no congestion control: Result.Delivered/Goodput come from the sink's
// packet count, and the TCP-only series (Cwnd, RTT, AckArrivals,
// Collapses) and stats stay empty.
type SourceSpec struct {
	// Kind selects the generator: SourceCBR or SourceOnOff (SourceTCP
	// and "" mean an ordinary TCP connection).
	Kind string
	// Rate is the offered bit rate while the source is active (> 0).
	Rate int64
	// Size is the packet size in bytes; 0 means Config.DataSize.
	Size int
	// OnMean/OffMean are the exponential period means of SourceOnOff.
	OnMean, OffMean time.Duration
}

// generates reports whether the spec replaces the TCP endpoints.
func (s *SourceSpec) generates() bool {
	return s != nil && s.Kind != "" && s.Kind != SourceTCP
}

// Validate reports the first problem with the spec. Callers wrap the
// error with the connection's identity.
func (s *SourceSpec) Validate() error {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case "", SourceTCP:
		if *s != (SourceSpec{Kind: s.Kind}) {
			return fmt.Errorf("a tcp source takes no generator parameters")
		}
		return nil
	case SourceCBR:
		if s.OnMean != 0 || s.OffMean != 0 {
			return fmt.Errorf("cbr source takes no on/off period means")
		}
	case SourceOnOff:
		if s.OnMean <= 0 || s.OffMean <= 0 {
			return fmt.Errorf("onoff source needs positive on_mean and off_mean")
		}
	default:
		return fmt.Errorf("unknown source kind %q (want %s, %s, or %s)",
			s.Kind, SourceTCP, SourceCBR, SourceOnOff)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("%s source needs a positive rate, got %d", s.Kind, s.Rate)
	}
	if s.Size < 0 {
		return fmt.Errorf("negative source packet size %d", s.Size)
	}
	return nil
}

// LinkEvent changes one trunk link while the run is in progress: at
// time T the link either goes down (routing steers around it; packets
// already queued or in flight still drain and deliver) or changes
// bandwidth (the new rate applies from the next serialization on each
// direction's port, and routing re-weighs the link). Affected switch
// forwarding tables are recomputed incrementally at build time
// (topology.ApplyLinkChange) and swapped in as simulation events, so
// runs with events stay byte-identical at every shard count. A down
// link that would disconnect any host pair is a build error.
type LinkEvent struct {
	// T is the simulation time the change takes effect.
	T time.Duration
	// Link is the topology link index (Compiled.Links order; for the
	// default chain, link i joins switches i and i+1).
	Link int
	// Bandwidth, when positive, is the link's new rate in bits/s.
	Bandwidth int64
	// Down, when true, removes the link from routing. Exactly one of
	// Bandwidth/Down must be set.
	Down bool
}

// Validate reports the first problem with the event given the number of
// links in the effective topology.
func (e *LinkEvent) Validate(links int) error {
	if e.T < 0 {
		return fmt.Errorf("negative event time %v", e.T)
	}
	if e.Link < 0 || e.Link >= links {
		return fmt.Errorf("link %d out of range [0,%d)", e.Link, links)
	}
	if e.Down && e.Bandwidth != 0 {
		return fmt.Errorf("link %d event sets both down and bandwidth", e.Link)
	}
	if !e.Down && e.Bandwidth <= 0 {
		return fmt.Errorf("link %d event needs a positive bandwidth or down", e.Link)
	}
	return nil
}

// ReplayEvents applies c.Events to work — a private Clone of the
// compiled topology, which it mutates — in time order (file order among
// equal times), the way a run meets them: a down event takes the link
// out of routing, a bandwidth event re-weighs it at its new rate. After
// each event it calls each with the event's index in c.Events, the
// routing weight applied (topology.LinkDown for a down) and the switches
// whose forwarding rows moved; work is then in its state after the event.
// The first event the topology refuses — a down that disconnects a host
// pair — ends the replay with the error a build reports. BuildE
// schedules its table swaps from here and tahoe-sim -validate prints
// from here, so what validates is what builds.
func (c *Config) ReplayEvents(work *topology.Compiled, each func(i int, ev LinkEvent, weight time.Duration, changed []int)) error {
	order := make([]int, len(c.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return c.Events[order[a]].T < c.Events[order[b]].T })
	for _, i := range order {
		ev := c.Events[i]
		if err := ev.Validate(len(work.Links)); err != nil {
			return fmt.Errorf("core: event %d: %w", i, err)
		}
		w := topology.LinkDown
		if !ev.Down {
			w = work.Links[ev.Link].Delay + link.TxTime(c.topologyDefaults().DataSize, ev.Bandwidth)
		}
		changed, err := work.ApplyLinkChange(ev.Link, w)
		if err != nil {
			return fmt.Errorf("core: event %d (link %d at %v): %w", i, ev.Link, ev.T, err)
		}
		each(i, ev, w, changed)
	}
	return nil
}

// ParseLinkEvent parses the -event flag syntax: comma-separated
// key=value tokens — "link=<index>" and "t=<duration>" (both
// required), plus either "bw=<bits/s>" (alias "bandwidth=") or the
// bare token "down", each key at most once. Examples:
//
//	link=1,t=120s,bw=25000
//	link=3,t=2m,down
func ParseLinkEvent(text string) (LinkEvent, error) {
	var ev LinkEvent
	given := make(map[string]bool) // the keys seen so far, bandwidth= as bw
	for _, tok := range strings.Split(text, ",") {
		k, v, hasVal := strings.Cut(strings.TrimSpace(tok), "=")
		key := k
		if k == "bandwidth" {
			key = "bw"
		}
		if given[key] {
			return ev, fmt.Errorf("core: event key %q given more than once", key)
		}
		given[key] = true
		var err error
		switch k {
		case "link":
			if ev.Link, err = strconv.Atoi(v); err != nil {
				return ev, fmt.Errorf("core: event link %q: %v", v, err)
			}
		case "t":
			if ev.T, err = time.ParseDuration(v); err != nil {
				return ev, fmt.Errorf("core: event time %q: %v", v, err)
			}
		case "bw", "bandwidth":
			if ev.Bandwidth, err = strconv.ParseInt(v, 10, 64); err != nil {
				return ev, fmt.Errorf("core: event bandwidth %q: %v", v, err)
			}
		case "down":
			if hasVal {
				return ev, fmt.Errorf("core: event token \"down\" takes no value")
			}
			ev.Down = true
		default:
			return ev, fmt.Errorf("core: unknown event token %q (want link=, t=, bw=, or down)", tok)
		}
	}
	if !given["link"] || !given["t"] {
		return ev, fmt.Errorf("core: an event needs link= and t=")
	}
	if ev.Down && ev.Bandwidth != 0 {
		return ev, fmt.Errorf("core: event sets both down and bandwidth")
	}
	if !ev.Down && ev.Bandwidth <= 0 {
		return ev, fmt.Errorf("core: event needs a positive bw= or down")
	}
	return ev, nil
}

// ConnSpec describes one TCP connection in a scenario.
type ConnSpec struct {
	// SrcHost and DstHost are 0-based host indices along the line.
	SrcHost, DstHost int
	// MaxWnd is the advertised window; 0 means DefaultMaxWnd.
	MaxWnd int
	// FixedWnd, when positive, disables congestion control and uses this
	// constant window.
	FixedWnd int
	// DelayedAck enables the receiver's delayed-ACK option.
	DelayedAck bool
	// Pace, when positive, paces data transmissions at least this far
	// apart (the pacing ablation).
	Pace time.Duration
	// OriginalIncrease selects the unmodified 1/cwnd avoidance rule.
	OriginalIncrease bool
	// Reno enables 4.3-Reno fast recovery for this connection (an
	// extension; the paper studies Tahoe).
	Reno bool
	// ExtraDelay adds a fixed one-way delay to this connection's data
	// path, giving connections unequal round-trip times (§5: unequal
	// RTTs break complete clustering).
	ExtraDelay time.Duration
	// Start is the connection start time. Negative means "pick a random
	// start in [0, StartSpread) from the scenario RNG".
	Start time.Duration
	// Source, when set to a generating kind, replaces the TCP endpoints
	// with a non-TCP traffic source and a counting sink. The TCP-only
	// fields above are ignored for such connections.
	Source *SourceSpec
}

// Config describes a complete scenario. The zero value is not runnable;
// use the With* helpers or fill the fields and call Normalize.
type Config struct {
	// Switches is the number of switches on the line (>= 2). Host i
	// hangs off switch i. Ignored (and overwritten by Normalize) when
	// Topology is set.
	Switches int
	// Topology, when non-nil, replaces the default switch line with an
	// arbitrary graph: duplex links with per-link bandwidth/delay/buffer
	// overrides, explicit host placement, and static shortest-path
	// routing (see internal/topology). Zero-valued link parameters
	// inherit the Trunk*/Buffer defaults below. Connection host indices
	// refer to the topology's host list.
	Topology *topology.Graph
	// TrunkBandwidth and TrunkDelay describe every switch-switch line;
	// TrunkDelay is the paper's propagation delay τ.
	TrunkBandwidth int64
	TrunkDelay     time.Duration
	// Buffer is the per-output-port switch buffer in packets; <= 0 means
	// infinite (the fixed-window configurations).
	Buffer int
	// AccessBandwidth/AccessDelay describe the host-switch lines.
	AccessBandwidth int64
	AccessDelay     time.Duration
	// HostProcessing is the per-packet host processing time.
	HostProcessing time.Duration
	// Queue selects the queue discipline of every switch output port
	// (trunk ports and switch→host access ports); nil is the paper's
	// drop-tail FIFO. Stochastic policies (random-drop, red) draw from
	// per-port RNG streams derived from Seed, so results are identical
	// at every shard count.
	Queue *link.QueueSpec
	// LinkQueue overrides Queue per topology link index (both directions
	// of that trunk).
	LinkQueue map[int]*link.QueueSpec
	// Behavior, when non-nil, applies a link behavior — stochastic loss
	// (Bernoulli or Gilbert-Elliott), bounded jitter, optional
	// reordering, trace-driven rate replay — to every trunk port.
	// Behaviors also draw from per-port seeded streams.
	Behavior *link.BehaviorSpec
	// LinkBehavior overrides Behavior per topology link index.
	LinkBehavior map[int]*link.BehaviorSpec
	// DataSize and AckSize are packet sizes in bytes. AckSize may be 0
	// for the zero-length-ACK conjecture experiments; DataSize must be
	// positive.
	DataSize int
	AckSize  int

	// Conns lists the connections.
	Conns []ConnSpec

	// Events lists mid-run link changes (bandwidth steps, link-down),
	// applied in order of T with ties broken by list position. See
	// LinkEvent for semantics and the byte-identity contract.
	Events []LinkEvent

	// noPool disables the per-run packet free list, allocating every
	// packet on the heap as the pre-pool simulator did. Pooling is
	// behavior-neutral, and this is how this package's determinism tests
	// assert it — byte-identical output both ways; unexported because the
	// unpooled run is their referee, not a user option.
	noPool bool

	// Sched selects the event-scheduler implementation backing the run's
	// engine: sim.SchedWheel (hierarchical timing wheel; what the zero
	// value, sim.SchedDefault, means) or sim.SchedHeap (the 4-ary heap the
	// identity tests hold the wheel against). The two fire events in
	// exactly the same order, so this never changes results — only the
	// wall-clock cost of a run.
	Sched sim.SchedKind

	// Shards is the number of topology regions the run is partitioned
	// into, each simulated by its own engine on its own goroutine with
	// conservative lookahead synchronization (internal/shard). Zero means
	// the process default (SetDefaultShards, normally 1); 1 is the serial
	// engine. Sharded runs produce byte-identical
	// Results — the shard identity tests assert it — so this, like Sched,
	// only changes the wall-clock cost of a run. The count is clamped to
	// the number of switches.
	Shards int
	// Regions, when non-empty, overrides the automatic partitioner with
	// an explicit assignment: Regions[r] lists the switch indices of
	// region r, and every switch must appear exactly once. Shards must be
	// zero or equal to len(Regions).
	Regions [][]int

	// MeasureTrunks limits per-trunk measurement — queue-length series,
	// departure logs, drop records, and queue histograms — to the listed
	// topology link indices. nil measures every trunk (the historical
	// behavior); an empty non-nil slice measures none. Unmeasured trunks
	// still forward, drop, and report utilization (Result.TrunkUtil is
	// always complete); only their logs are skipped, which is what makes
	// 10⁵-link networks affordable: a measured trunk preallocates trace
	// series sized for the whole run, an unmeasured one costs two ports.
	// Result entries for unmeasured trunks are nil/empty.
	MeasureTrunks []int
	// MeasureConns limits per-connection measurement — cwnd/RTT series,
	// ACK-arrival logs, collapse logs, per-conn histograms — to the
	// listed connection indices. nil measures every connection.
	// Unmeasured connections still run normally and report final
	// SenderStats/ReceiverStats/Delivered/Goodput; their Result series
	// entries are nil/empty. This is what lets 10⁵ concurrent flows fit:
	// per-flow measurement state dwarfs the flow itself.
	MeasureConns []int

	// Seed drives all scenario randomness (random start times).
	Seed int64
	// StartSpread bounds random connection start times.
	StartSpread time.Duration

	// Warmup is discarded before measurement; Duration ends the run.
	Warmup, Duration time.Duration

	// Obs, when non-nil, enables the observability layer for this run:
	// structured event tracing, the per-run metrics registry
	// (Result.Metrics), and progress sampling. Nil — the zero value —
	// disables all of it at zero cost, and enabling it never changes the
	// run's Result (see internal/obs).
	Obs *obs.Options

	// Invariants, when non-nil, runs the streaming invariant engine
	// (internal/tstore) online over the run's event stream: per-port
	// packet conservation and causality, event-time monotonicity, cwnd
	// bounds, and timeout monotonicity. The checker wraps the trace sink
	// (or becomes the sink when Obs.Trace is unset), so it composes with
	// tracing to disk and with sharded runs, whose merged stream it sees.
	// A checker only observes — the run's physics and Result metrics are
	// untouched — and the first violation stops checking, surfacing as
	// Result.Invariant (and Result.TraceErr). When MaxCwnd is nil and
	// cwnd bounds are enabled, each connection's bound defaults to
	// max(MaxWnd, FixedWnd). Conservation needs the full event stream,
	// so combining it with Obs.Trace.Filter is a build error unless
	// NoConservation is set.
	Invariants *tstore.CheckOptions
}

// DumbbellConfig returns the paper's Figure-1 configuration: two
// switches, 50 Kbps bottleneck with propagation delay tau, buffer
// packets of buffering per port, and paper-standard access links and
// packet sizes. Add connections before running.
func DumbbellConfig(tau time.Duration, buffer int) Config {
	return Config{
		Switches:        2,
		TrunkBandwidth:  DefaultTrunkBandwidth,
		TrunkDelay:      tau,
		Buffer:          buffer,
		AccessBandwidth: DefaultAccessBandwidth,
		AccessDelay:     DefaultAccessDelay,
		HostProcessing:  DefaultHostProcessing,
		DataSize:        DefaultDataSize,
		AckSize:         DefaultAckSize,
		Seed:            1,
		StartSpread:     time.Second,
		Warmup:          100 * time.Second,
		Duration:        600 * time.Second,
	}
}

// Normalize fills zero fields with paper defaults and validates the
// configuration, panicking on nonsense (this is construction-time
// programmer error, not runtime input). Callers handling untrusted
// input should go through BuildE/RunE, which surface the same problems
// as errors.
func (c *Config) Normalize() {
	if err := c.normalize(); err != nil {
		panic(err.Error())
	}
}

// normalize fills zero fields with paper defaults and validates,
// returning the first problem found.
func (c *Config) normalize() error {
	if c.Topology != nil {
		if c.Topology.Switches < 1 {
			return fmt.Errorf("core: topology has no switches")
		}
		c.Switches = c.Topology.Switches
	} else {
		if c.Switches == 0 {
			c.Switches = 2
		}
		if c.Switches < 2 {
			return fmt.Errorf("core: a scenario needs at least 2 switches")
		}
		if err := c.checkLine(); err != nil {
			return err
		}
	}
	if c.TrunkBandwidth == 0 {
		c.TrunkBandwidth = DefaultTrunkBandwidth
	}
	if c.TrunkBandwidth < 0 {
		return fmt.Errorf("core: negative TrunkBandwidth %d", c.TrunkBandwidth)
	}
	for _, d := range [...]struct {
		name string
		v    time.Duration
	}{
		{"TrunkDelay", c.TrunkDelay}, {"AccessDelay", c.AccessDelay}, {"HostProcessing", c.HostProcessing},
		{"StartSpread", c.StartSpread}, {"Warmup", c.Warmup}, {"Duration", c.Duration},
	} {
		if d.v < 0 {
			return fmt.Errorf("core: negative %s %v", d.name, d.v)
		}
	}
	if c.AccessBandwidth == 0 {
		c.AccessBandwidth = DefaultAccessBandwidth
	}
	if c.AccessBandwidth < 0 {
		return fmt.Errorf("core: negative AccessBandwidth %d", c.AccessBandwidth)
	}
	if c.AccessDelay == 0 {
		c.AccessDelay = DefaultAccessDelay
	}
	if c.HostProcessing == 0 {
		c.HostProcessing = DefaultHostProcessing
	}
	if c.DataSize == 0 {
		c.DataSize = DefaultDataSize
	}
	if c.DataSize < 0 {
		return fmt.Errorf("core: negative DataSize")
	}
	if c.AckSize < 0 {
		return fmt.Errorf("core: negative AckSize")
	}
	if err := c.checkSpecs(); err != nil {
		return err
	}
	if len(c.Regions) > 0 {
		if c.Shards != 0 && c.Shards != len(c.Regions) {
			return fmt.Errorf("core: Shards %d disagrees with %d explicit Regions", c.Shards, len(c.Regions))
		}
		c.Shards = len(c.Regions)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative Shards %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = defaultShards
	}
	// More regions than switches cannot all be non-empty; silently run
	// with one region per switch (explicit Regions still validate
	// strictly in the partitioner).
	if len(c.Regions) == 0 && c.Shards > c.Switches {
		c.Shards = c.Switches
	}
	if c.StartSpread == 0 {
		c.StartSpread = time.Second
	}
	if c.Duration == 0 {
		c.Duration = 600 * time.Second
	}
	if c.Warmup >= c.Duration {
		return fmt.Errorf("core: warmup %v must precede the end of the run at %v", c.Warmup, c.Duration)
	}
	if len(c.Conns) == 0 {
		return fmt.Errorf("core: no connections configured")
	}
	if c.Obs != nil && c.Obs.Trace != nil && c.Obs.Trace.Sink == nil {
		return fmt.Errorf("core: Obs.Trace set without a Sink")
	}
	for _, k := range c.MeasureConns {
		if k < 0 || k >= len(c.Conns) {
			return fmt.Errorf("core: MeasureConns names connection %d, out of range [0,%d)", k, len(c.Conns))
		}
	}
	if len(c.Events) > 0 {
		links := len(c.Graph().Links)
		for i := range c.Events {
			if err := c.Events[i].Validate(links); err != nil {
				return fmt.Errorf("core: event %d: %w", i, err)
			}
		}
	}
	return c.normalizeConns()
}

// checkSpecs validates the queue and behaviour specs, global and per
// link. That each key names a link is checked once the links are known
// (build.plan).
func (c *Config) checkSpecs() error {
	if c.Queue != nil {
		if err := c.Queue.Validate(); err != nil {
			return fmt.Errorf("core: queue: %w", err)
		}
	}
	for li, qs := range c.LinkQueue {
		if qs == nil {
			continue
		}
		if err := qs.Validate(); err != nil {
			return fmt.Errorf("core: link %d queue: %w", li, err)
		}
	}
	if c.Behavior != nil {
		if err := c.Behavior.Validate(); err != nil {
			return fmt.Errorf("core: behavior: %w", err)
		}
	}
	for li, bs := range c.LinkBehavior {
		if bs == nil {
			continue
		}
		if err := bs.Validate(); err != nil {
			return fmt.Errorf("core: link %d behavior: %w", li, err)
		}
	}
	return nil
}

// normalizeConns defaults and validates the connections.
func (c *Config) normalizeConns() error {
	hosts := c.HostCount()
	// Conns is the caller's backing array, perhaps being read by another
	// worker building the same Config: the first default goes to a copy.
	owned := false
	for i := range c.Conns {
		if c.Conns[i].MaxWnd == 0 {
			if !owned {
				c.Conns, owned = slices.Clone(c.Conns), true
			}
			c.Conns[i].MaxWnd = DefaultMaxWnd
		}
		s := &c.Conns[i]
		if s.SrcHost == s.DstHost {
			return fmt.Errorf("core: connection %d src == dst (host %d)", i, s.SrcHost)
		}
		if s.SrcHost < 0 || s.SrcHost >= hosts || s.DstHost < 0 || s.DstHost >= hosts {
			return fmt.Errorf("core: connection %d host index out of range (src %d, dst %d, %d hosts)",
				i, s.SrcHost, s.DstHost, hosts)
		}
		if err := s.Source.Validate(); err != nil {
			return fmt.Errorf("core: connection %d: %w", i, err)
		}
	}
	return nil
}

// Seed-stream kinds for entitySeed: each (kind, index) pair names one
// stochastic entity with its own independent RNG stream.
const (
	seedKindQueue uint64 = iota + 1
	seedKindBehavior
	seedKindSource
)

// entitySeed derives an independent, reproducible RNG seed for entity
// idx of the given kind from the scenario seed, via a splitmix64-style
// mix. Unlike draws from the shared scenario RNG, the derived seed
// depends only on (Seed, kind, idx) — never on construction order or
// the topology partition — which is what makes seeded queue policies,
// link behaviors, and sources byte-identical at every shard count.
func entitySeed(seed int64, kind uint64, idx int) int64 {
	z := uint64(seed) ^ (kind * 0x9E3779B97F4A7C15) ^ (uint64(idx+1) * 0xD1B54A32D192ED03)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// HostCount returns the number of hosts the scenario will build: the
// topology's host list, or one host per switch when no explicit
// topology (or no host list) is given.
func (c *Config) HostCount() int {
	if c.Topology != nil && len(c.Topology.Hosts) > 0 {
		return len(c.Topology.Hosts)
	}
	if c.Topology != nil {
		return c.Topology.Switches
	}
	if c.Switches == 0 {
		return 2
	}
	return c.Switches
}

// Graph returns the effective topology graph: the explicit Topology,
// or the default line of Switches switches with one host each.
func (c *Config) Graph() topology.Graph {
	if c.Topology != nil {
		return *c.Topology
	}
	n := c.Switches
	if n == 0 {
		n = 2
	}
	return topology.Chain(n)
}

// checkLine refuses a default line (Switches with no Topology) too long
// for the topology's packed representations, before Graph allocates it;
// an explicit Topology is checked when it is resolved.
func (c *Config) checkLine() error {
	if c.Topology != nil {
		return nil
	}
	return topology.CheckSize(c.Switches, c.Switches-1, c.Switches)
}

// CompileTopology resolves the effective graph against this
// configuration's trunk defaults and computes the forwarding tables.
// Build calls it (panicking on error, as for any construction-time
// programmer error); tahoe-sim -validate calls it directly to surface
// topology problems as ordinary errors.
func (c *Config) CompileTopology() (*topology.Compiled, error) {
	if err := c.checkLine(); err != nil {
		return nil, err
	}
	return c.Graph().Compile(c.topologyDefaults())
}

// ResolveTopology validates the effective graph without compiling its
// routes: it returns the error CompileTopology would, or the resolved
// links, hosts and adjacency that anything referring to the topology
// (events, regions, connections) is checked against. Input validation
// uses it so that a scenario's routes are computed once, by Build.
func (c *Config) ResolveTopology() (*topology.Skeleton, error) {
	if err := c.checkLine(); err != nil {
		return nil, err
	}
	return c.Graph().Resolve(c.topologyDefaults())
}

func (c *Config) topologyDefaults() topology.Defaults {
	bw := c.TrunkBandwidth
	if bw == 0 {
		bw = DefaultTrunkBandwidth
	}
	size := c.DataSize
	if size == 0 {
		size = DefaultDataSize
	}
	return topology.Defaults{
		Bandwidth: bw,
		Delay:     c.TrunkDelay,
		Buffer:    c.Buffer,
		DataSize:  size,
	}
}

// PipeSize returns the paper's pipe size P = μτ/M: the number of data
// packets in flight on one trunk hop.
func (c *Config) PipeSize() float64 {
	if c.DataSize == 0 {
		return 0
	}
	bits := float64(c.TrunkBandwidth) * c.TrunkDelay.Seconds()
	return bits / float64(8*c.DataSize)
}

// DataTxTime returns the bottleneck transmission time of one data packet.
func (c *Config) DataTxTime() time.Duration {
	bits := int64(c.DataSize) * 8
	return time.Duration(bits * int64(time.Second) / c.TrunkBandwidth)
}
