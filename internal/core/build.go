package core

import (
	"fmt"
	"math/rand"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/node"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/shard"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/tcp"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
	"tahoedyn/internal/tstore"
)

// build is the state of one buildE call: what each phase leaves for the
// ones after it (DESIGN.md, "Build phases"). It is garbage when buildE
// returns: the hooks the phases install on ports and senders run once per
// packet event and capture locals — an engine, a series, a histogram, a
// drop log — never the build.
type build struct {
	cfg Config // the caller's, normalized: what Result.Cfg and the Sim keep
	ar  *Arena // where engines, pools, rings, wiring and log chunks come from

	// plan
	topo          *topology.Compiled
	trunkMeasured []bool // nil: every trunk
	connMeasured  []bool // nil: every connection
	// trace is what the run traces with: the caller's options, with the
	// invariant checker in front of the caller's sink. Nil: no tracer.
	trace   *obs.TraceOptions
	checker *tstore.Checker
	// capacity is the checker's CheckOptions.Capacity when core fills it
	// (nil otherwise): the port phase enters every drop-tail port with a
	// bounded buffer and an ideal line, before the first event is traced.
	capacity map[string]int

	part *topology.Partition // partition; nil: one region

	// stores
	engs     []*sim.Engine
	pools    []*packet.Pool // nil entries under cfg.noPool
	tracers  []*obs.Tracer  // nil entries when nothing traces
	logPools []*logPools
	merger   *obs.TraceMerger
	metrics  *obs.Metrics
	logs     runLogs
	res      *Result

	// ports, then conns
	switches  []*node.Switch
	hosts     []*node.Host
	trunks    [][2]*link.Port
	edges     []*shard.Edge // the cut links' hand-offs and each one's source region
	edgeFrom  []int
	senders   []*tcp.Sender
	receivers []*tcp.Receiver
	sinks     []*node.Sink
}

// buildE assembles the Sim by running the phases in the one order there
// is. A nil ar builds on a throw-away arena; the run settles its logs the
// same way.
func buildE(cfg Config, ar *Arena) (_ *Sim, err error) {
	b := build{cfg: cfg, ar: ar}
	if ar == nil {
		b.ar = new(Arena)
	}
	defer func() {
		if err != nil { // the logs made so far took chunks: give them back
			b.logs.settle()
		}
	}()
	// Called one by one, not through a table of method values: the build
	// then stays on the stack.
	if err = b.plan(); err != nil {
		return nil, err
	}
	if err = b.partition(); err != nil {
		return nil, err
	}
	b.stores()
	if err = b.ports(); err != nil {
		return nil, err
	}
	b.conns()
	if err = b.events(); err != nil {
		return nil, err
	}
	return b.assemble()
}

// plan normalizes the configuration, compiles the topology and checks
// everything that names a link or a connection by index against what
// there is; it decides what is measured and what the run traces with.
func (b *build) plan() (err error) {
	cfg := &b.cfg
	if err = cfg.normalize(); err != nil {
		return err
	}
	if b.topo, err = cfg.CompileTopology(); err != nil {
		return err
	}
	nl := len(b.topo.Links)
	inRange := func(field string, li int) error {
		if li < 0 || li >= nl {
			return fmt.Errorf("core: %s names link %d, out of range [0,%d)", field, li, nl)
		}
		return nil
	}
	for li := range cfg.LinkQueue {
		if err := inRange("LinkQueue", li); err != nil {
			return err
		}
	}
	for li := range cfg.LinkBehavior {
		if err := inRange("LinkBehavior", li); err != nil {
			return err
		}
	}
	// Measurement gating: nil means measure everything; a non-nil
	// MeasureTrunks/MeasureConns restricts per-trunk and per-connection
	// instrumentation to the listed indices. Gating only decides whether
	// observation state is allocated and hooks installed — it never touches
	// forwarding, queueing, or the TCP state machines — so a gated run's
	// Delivered/SenderStats/TrunkUtil match an ungated one exactly
	// (measure_gate_test.go).
	if cfg.MeasureTrunks != nil {
		b.trunkMeasured = make([]bool, nl)
		for _, li := range cfg.MeasureTrunks {
			if err := inRange("MeasureTrunks", li); err != nil {
				return err
			}
			b.trunkMeasured[li] = true
		}
	}
	if cfg.MeasureConns != nil {
		b.connMeasured = make([]bool, len(cfg.Conns))
		for _, k := range cfg.MeasureConns {
			b.connMeasured[k] = true // indices validated by normalize
		}
	}
	if cfg.Obs != nil {
		b.trace = cfg.Obs.Trace
	}
	if cfg.Invariants == nil {
		return nil
	}
	// Streaming invariants: an online checker between the tracer(s) and
	// the caller's sink — or the checker as the sink when no tracing was
	// requested. It sees the merged, time-ordered stream (after the
	// TraceMerger for sharded runs), observes only, and reports the first
	// violation through Result.Invariant/TraceErr. The caller's options
	// are copied, not written through.
	o := *cfg.Invariants
	var to obs.TraceOptions
	if b.trace != nil {
		to = *b.trace
	}
	if to.Filter != (obs.Filter{}) && !o.NoConservation {
		return fmt.Errorf("core: Invariants cannot check conservation over a filtered trace; drop Obs.Trace.Filter or set Invariants.NoConservation")
	}
	if o.MaxCwnd == nil && !o.NoCwndBounds {
		o.MaxCwnd = make(map[int]float64, len(cfg.Conns))
		for k := range cfg.Conns {
			o.MaxCwnd[k+1] = float64(max(cfg.Conns[k].MaxWnd, cfg.Conns[k].FixedWnd))
		}
	}
	if o.Capacity == nil && !o.NoConservation {
		o.Capacity = map[string]int{}
		b.capacity = o.Capacity
	}
	b.checker = tstore.NewChecker(to.Sink, o)
	to.Sink = b.checker
	b.trace = &to
	return nil
}

// partition splits the switch graph into regions, each simulated by its
// own engine (internal/shard); one region is the serial path.
func (b *build) partition() (err error) {
	if b.cfg.Shards <= 1 {
		return nil
	}
	if len(b.cfg.Regions) > 0 {
		b.part, err = b.topo.PartitionWith(b.cfg.Regions)
	} else {
		b.part, err = b.topo.Partition(b.cfg.Shards)
	}
	if err != nil || b.part.K == 1 {
		b.part = nil
	}
	return err
}

// regionOf returns the region that simulates switch sw.
func (b *build) regionOf(sw int) int {
	if b.part == nil {
		return 0
	}
	return b.part.Region[sw]
}

// stores draws from the arena what the run is made of — per region an
// engine, a packet pool and, when tracing, a tracer over the previous
// run's ring; the wiring slices; the drop logs — and makes the Result's
// shell. Packet pointers never cross region goroutines, hence a pool per
// region; noPool keeps the allocate-and-discard behaviour the determinism
// tests compare against.
func (b *build) stores() {
	cfg, K := &b.cfg, 1
	if b.part != nil {
		K = b.part.K
	}
	// Sharded engines hand out strided seqs so the coordinator can
	// interpolate cross-region arrivals between them; serial engines keep
	// the historical counter. Always set: a reused engine retains the
	// previous run's stride.
	stride := uint64(1)
	if K > 1 {
		stride = shard.Stride
		if b.trace != nil {
			// Every region traces into its own ring; the merger reassembles
			// one time-ordered stream for the sink at each barrier.
			b.merger = obs.NewTraceMerger(b.trace.Sink, K)
		}
	}
	b.engs, b.pools, b.tracers = make([]*sim.Engine, K), make([]*packet.Pool, K), make([]*obs.Tracer, K)
	b.logPools = make([]*logPools, K)
	// Every per-run log appends into chunks from its region's pools. The
	// drop logs are per region and canonically merged at finish
	// (Sim.mergeDrops); a serial run is the same path with one.
	b.logs.drops = make([]*chunkLog[dropRec], K)
	stores := b.ar.stores(cfg.Sched, K)
	for r := range stores {
		st := &stores[r]
		b.logPools[r] = st.logs
		b.logs.drops[r] = newLog(&b.logs, &st.logs.drops, nil, false)
		st.eng.SetSeqStride(stride)
		b.engs[r] = st.eng
		if !cfg.noPool {
			b.pools[r] = st.pool
		}
		if b.trace != nil {
			// The serial tracer delivers to the sink itself, overlapped with
			// the run; a region's sink is an append to the merger's buffer,
			// delivered inline.
			o := *b.trace
			if b.merger != nil {
				o.Sink = b.merger.Buffer(r)
			}
			st.tracer = obs.NewTracerReusing(o, st.tracer.Ring(), b.merger == nil)
			b.tracers[r] = st.tracer
		}
	}
	if cfg.Obs != nil && cfg.Obs.Metrics {
		b.metrics = obs.NewMetrics()
	}
	topo, nl, nc := b.topo, len(b.topo.Links), len(cfg.Conns)
	b.switches, b.hosts, b.trunks, b.senders, b.receivers = b.ar.wiring(topo.Switches, topo.NumHosts(), nl, nc)
	b.sinks = make([]*node.Sink, nc)
	b.res = &Result{
		Cfg: *cfg, Topo: topo, MeasureFrom: cfg.Warmup, MeasureTo: cfg.Duration, Metrics: b.metrics,
		TrunkQueue:  make([][2]*trace.Series, nl),
		TrunkDeps:   make([][2][]trace.Departure, nl),
		TrunkUtil:   make([][2]float64, nl),
		Cwnd:        make([]*trace.Series, nc),
		AckArrivals: make([][]time.Duration, nc),
		RTT:         make([]*trace.Series, nc),
		Collapses:   make([][]CollapseEvent, nc),
	}
}

// named reports whether a port in region rg is read by name at build
// time: by the region's tracer, which interns it, or by the invariant
// checker's capacity map. A port keeps no name, so elsewhere core
// formats one only where a log or a gauge records it.
func (b *build) named(rg int) bool { return b.tracers[rg] != nil || b.capacity != nil }

// trunkName names the trunk port transmitting from switch at to switch
// to, in traces, drop logs, queue series and metrics.
func trunkName(at, to int) string { return fmt.Sprintf("sw%d->sw%d", at, to) }

// port makes an output port on region rg's engine, pool and tracer.
// c.Name must be set when b.named(rg).
func (b *build) port(rg int, c link.Config, dst link.Receiver) *link.Port {
	c.Pool, c.Obs = b.pools[rg], b.tracers[rg]
	if b.capacity != nil && c.Disc == nil && c.Behavior == nil && c.Buffer > 0 {
		// A line loss traces as a Drop after its Transmit, so a port
		// with a Behavior cannot be held to the drop-tail rule.
		b.capacity[c.Name] = c.Buffer
	}
	pt := link.NewPort(b.engs[rg], c, dst)
	b.ar.ports = append(b.ar.ports, pt)
	return pt
}

// disc builds the queue discipline of the port with stable entity index
// ent: host down-ports in host order, then trunk ports as nh + 2·link +
// dir. A nil spec returns nil — drop-tail, which the port runs itself:
// no Disc, no allocation here and no RNG draw; a drop-tail spec builds
// the same nil. A stochastic policy gets its own
// entitySeed stream rather than a draw on the shared RNG, which is what
// keeps it deterministic across shard counts; likewise behavior.
func (b *build) disc(qs *link.QueueSpec, ent int) (link.Disc, error) {
	if qs == nil {
		return nil, nil
	}
	var r *rand.Rand
	if qs.NeedsRand() {
		r = rand.New(rand.NewSource(entitySeed(b.cfg.Seed, seedKindQueue, ent)))
	}
	return qs.Build(r)
}

// behavior builds the link behavior of trunk port ent = 2·link + dir.
// Each direction owns its Impairment (the loss/jitter state is per line);
// the RateTrace inside a spec is stateless and shared.
func (b *build) behavior(bs *link.BehaviorSpec, ent int) (link.Behavior, error) {
	if bs.IsZero() {
		return nil, nil
	}
	var r *rand.Rand
	if bs.NeedsRand() {
		r = rand.New(rand.NewSource(entitySeed(b.cfg.Seed, seedKindBehavior, ent)))
	}
	return bs.Build(r)
}

// logDrops appends the drops of pt, named name, to its region's log,
// each tagged with the scheduling lineage of the event that executed it.
func logDrops(eng *sim.Engine, log *chunkLog[dropRec], pt *link.Port, name string) {
	pt.SetOnDrop(func(p *packet.Packet) {
		sa, sa2 := eng.ExecLineage()
		log.add(dropRec{
			DropEvent: trace.DropEvent{T: eng.Now(), Conn: p.Conn, Seq: p.Seq, Kind: p.Kind, Port: name},
			schedAt:   sa,
			schedAt2:  sa2,
		})
	})
}

// ports builds the switches, the hosts at their attachment points with
// their access links, the trunk ports with their instruments, and points
// every switch at its forwarding row.
func (b *build) ports() (err error) {
	cfg, topo := &b.cfg, b.topo
	nh := topo.NumHosts()
	for i := range b.switches {
		b.switches[i] = node.NewSwitch(i)
	}
	// Host h gets ID Addr(h)+1, the identifier packets carry in Src/Dst —
	// its address in the order forwarding rows index, so a switch looks a
	// packet up with no translation — while its port and trace names keep
	// h+1. It lives on its switch's region engine, so an access link never
	// crosses a region boundary. The host's own interface buffer is
	// unbounded (a source may always burst into its own NIC); the switch's
	// port toward the host uses the switch buffer and the global queue
	// spec, per §2.2.
	for h := range b.hosts {
		sw := topo.HostSwitch(h)
		rg := b.regionOf(sw)
		id := topo.Addr(h) + 1
		host := node.NewHost(b.engs[rg], id, cfg.HostProcessing)
		b.hosts[h] = host
		access := link.Config{
			Bandwidth: cfg.AccessBandwidth,
			Delay:     cfg.AccessDelay,
			Buffer:    queueUnbounded,
		}
		if b.named(rg) {
			access.Name = fmt.Sprintf("h%d->sw%d", h+1, sw)
		}
		host.SetOutput(b.port(rg, access, b.switches[sw]))
		// The down port's drops are logged, so it is always named.
		access.Name, access.Buffer = fmt.Sprintf("sw%d->h%d", sw, h+1), cfg.Buffer
		if access.Disc, err = b.disc(cfg.Queue, h); err != nil {
			return err
		}
		down := b.port(rg, access, host)
		b.switches[sw].AddLocal(id, down)
		logDrops(b.engs[rg], b.logs.drops[rg], down, access.Name)
		if tracer := b.tracers[rg]; tracer != nil {
			host.SetObs(tracer, fmt.Sprintf("host%d", h+1))
		}
	}

	// Trunk ports, one pair per topology link: direction dir transmits
	// from ends[dir] and lives in that switch's region. A per-link queue
	// or behaviour spec overrides the global one for both directions.
	for li, l := range topo.Links {
		qs, bs := cfg.Queue, cfg.Behavior
		if o := cfg.LinkQueue[li]; o != nil {
			qs = o
		}
		if o := cfg.LinkBehavior[li]; o != nil {
			bs = o
		}
		// An unmeasured trunk forwards, drops and reports utilization only:
		// it costs just its two ports, unnamed unless traced.
		measured := b.trunkMeasured == nil || b.trunkMeasured[li]
		ends := [2]int{l.A, l.B}
		var names [2]string
		for dir, at := range ends {
			to, rg := ends[1-dir], b.regionOf(at)
			if measured || b.named(rg) {
				names[dir] = trunkName(at, to)
			}
			c := link.Config{
				Name:      names[dir],
				Bandwidth: l.Bandwidth,
				Delay:     l.Delay,
				Buffer:    l.Buffer,
			}
			if far := b.regionOf(to); far != rg {
				// A cut link: the port hands finished transmissions to a
				// shard edge instead of scheduling the propagation locally.
				e := &shard.Edge{Delay: l.Delay, To: far, Dst: b.switches[to]}
				b.edges, b.edgeFrom = append(b.edges, e), append(b.edgeFrom, rg)
				c.Cross = e
			}
			if c.Disc, err = b.disc(qs, nh+2*li+dir); err != nil {
				return err
			}
			if c.Behavior, err = b.behavior(bs, 2*li+dir); err != nil {
				return err
			}
			b.trunks[li][dir] = b.port(rg, c, b.switches[to])
		}
		if measured {
			for dir, pt := range b.trunks[li] {
				b.measureTrunk(li, dir, pt, names[dir], b.regionOf(ends[dir]))
			}
		}
	}

	// Forwarding tables. A switch does not copy its routes: it gets the
	// ports behind its adjacency slots (one flat array, sliced per switch
	// like the topology's own adjacency) and then forwards straight from
	// the compiled row — the topology's interned, immutable slices, by
	// reference (base 1: the row's address a is host ID a+1). Wiring
	// cost is O(switches + links), whatever the number of forwarding
	// intervals.
	slotPorts := make([]*link.Port, 0, 2*len(topo.Links))
	for s, sw := range b.switches {
		first := len(slotPorts)
		for i, n := 0, topo.Degree(s); i < n; i++ {
			hop := topo.SlotHop(s, i)
			slotPorts = append(slotPorts, b.trunks[hop.Link][hop.Dir])
		}
		sw.SetPorts(slotPorts[first:len(slotPorts):len(slotPorts)])
		sw.SetRow(1, topo.Row(s))
	}
	return nil
}

// measureTrunk gives trunk port pt, named name, its queue series,
// departure log, queue histogram and drop records. The series has a
// point at every accepted arrival and every departure; the run logs the
// admissions only, and Finish rebuilds the series from them and the
// departures.
func (b *build) measureTrunk(li, dir int, pt *link.Port, name string, rg int) {
	res, lp, eng := b.res, b.logPools[rg], b.engs[rg]
	s := trace.NewSeries(name)
	res.TrunkQueue[li][dir] = s
	deps := b.logs.departures(lp, &res.TrunkDeps[li][dir])
	q := b.logs.queue(lp, &res.TrunkDeps[li][dir], s)
	qh := b.metrics.NewHistogram("queue/"+name, queueBounds)
	pt.SetOnAdmit(func(n int, evicted bool) {
		now := eng.Now()
		q.changed(now)
		if evicted {
			q.evicted(now)
		}
		if !q.put(now) {
			q.admitSlow(now, n)
		}
		qh.Observe(float64(n))
	})
	pt.SetOnDepart(func(p *packet.Packet) {
		now := eng.Now()
		if r := newDepRest(p); !deps.put(now, r) {
			deps.addSlow(now, r)
		}
		q.changed(now)
		if q.settled() {
			s.Append(now, float64(pt.QueueLen()))
		}
		if qh != nil {
			qh.Observe(float64(pt.QueueLen()))
		}
	})
	logDrops(eng, b.logs.drops[rg], pt, name)
}

// conns builds the connections in Config.Conns order and schedules their
// starts. The order is a contract: a negative Start is a draw on the one
// shared RNG, sources included, so a mixed scenario's other start times
// do not move when a connection changes kind.
func (b *build) conns() {
	cfg := &b.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	for k := range cfg.Conns {
		spec := &cfg.Conns[k]
		src := b.hosts[spec.SrcHost]
		// The sender runs on its host's region engine, the receiver on its
		// own — a connection whose endpoints fall in different regions
		// converses purely through cut-link packets.
		sr := b.regionOf(b.topo.HostSwitch(spec.SrcHost))
		dr := b.regionOf(b.topo.HostSwitch(spec.DstHost))
		eng := b.engs[sr]
		var srcNet tcp.Network = src
		if spec.ExtraDelay > 0 {
			srcNet = &delayedNet{eng: eng, dst: src, d: spec.ExtraDelay}
		}
		var start func()
		if spec.Source.generates() {
			start = b.source(k, sr, dr, srcNet)
		} else {
			start = b.endpoints(k, sr, dr, srcNet)
		}
		at := spec.Start
		if at < 0 {
			at = time.Duration(rng.Int63n(int64(cfg.StartSpread)))
		}
		eng.ScheduleAt(at, start)
	}
}

// source builds connection k as a non-TCP source: a generator at the
// source host, a counting sink at the destination. No TCP instruments;
// Delivered/Goodput come from the sink. It returns the generator's start.
func (b *build) source(k, sr, dr int, srcNet tcp.Network) func() {
	cfg, spec := &b.cfg, &b.cfg.Conns[k]
	gen, src, dst := spec.Source, b.hosts[spec.SrcHost], b.hosts[spec.DstHost]
	size := gen.Size
	if size == 0 {
		size = cfg.DataSize
	}
	b.sinks[k] = node.NewSink(b.pools[dr])
	dst.Attach(k+1, b.sinks[k])
	scfg := node.SourceConfig{
		Conn: k + 1, Src: src.ID(), Dst: dst.ID(),
		Size: size, Rate: gen.Rate,
		IDFirst: uint64(2*k + 1), IDStride: uint64(2 * len(cfg.Conns)),
		Pool: b.pools[sr],
	}
	if gen.Kind == SourceCBR {
		return node.NewCBRSource(b.engs[sr], srcNet, scfg).Start
	}
	// SourceOnOff; normalize rejected everything else.
	srng := rand.New(rand.NewSource(entitySeed(cfg.Seed, seedKindSource, k)))
	return node.NewOnOffSource(b.engs[sr], srcNet, scfg, gen.OnMean, gen.OffMean, srng).Start
}

// endpoints builds connection k's TCP sender and receiver, with their
// instruments when the connection is measured, and returns the sender's
// start. Packet IDs come from per-endpoint generators (sender k mints
// 2k+1, 2k+1+2nc, …; receiver k mints 2k+2, …): the IDs an endpoint
// assigns cannot depend on how the topology is partitioned, which a
// counter shared in global schedule order would.
func (b *build) endpoints(k, sr, dr int, srcNet tcp.Network) func() {
	cfg, spec := &b.cfg, &b.cfg.Conns[k]
	src, dst := b.hosts[spec.SrcHost], b.hosts[spec.DstHost]
	connID, nc := k+1, len(cfg.Conns)
	s := tcp.NewSender(b.engs[sr], srcNet, tcp.NewIDGen(uint64(2*k+1), uint64(2*nc)), tcp.SenderConfig{
		Conn:             connID,
		SrcHost:          src.ID(),
		DstHost:          dst.ID(),
		MaxWnd:           spec.MaxWnd,
		DataSize:         cfg.DataSize,
		FixedWnd:         spec.FixedWnd,
		OriginalIncrease: spec.OriginalIncrease,
		Reno:             spec.Reno,
		Pace:             spec.Pace,
		Pool:             b.pools[sr],
	})
	r := tcp.NewReceiver(b.engs[dr], dst, tcp.NewIDGen(uint64(2*k+2), uint64(2*nc)), tcp.ReceiverConfig{
		Conn:       connID,
		SrcHost:    dst.ID(),
		DstHost:    src.ID(),
		AckSize:    cfg.AckSize,
		DelayedAck: spec.DelayedAck,
		Pool:       b.pools[dr],
	})
	src.Attach(connID, s)
	dst.Attach(connID, r)
	b.senders[k], b.receivers[k] = s, r
	s.Obs = b.tracers[sr]
	s.ObsLoc = s.Obs.Loc(fmt.Sprintf("conn%d", connID))
	if b.connMeasured == nil || b.connMeasured[k] {
		b.measureConn(k, s, b.engs[sr], b.logPools[sr])
	}
	return s.Start
}

// measureConn gives connection k's sender its window, ACK-arrival, RTT
// and collapse logs and their histograms, from the chunk pools lp of the
// sender's region. An RTT series with no sample settles to nil Points, as
// NewSeries leaves it, and a connection that never collapsed to nil
// Collapses.
func (b *build) measureConn(k int, s *tcp.Sender, eng *sim.Engine, lp *logPools) {
	res, metrics, connID := b.res, b.metrics, k+1
	cwSeries := trace.NewSeries(fmt.Sprintf("cwnd-%d", connID))
	res.Cwnd[k] = cwSeries
	cw := b.logs.series(lp, cwSeries, false)
	cw.add(0, 1)
	s.OnCwnd = func(v float64) { cw.add(eng.Now(), v) }
	acks := b.logs.times(lp, &res.AckArrivals[k])
	ackGapHist := metrics.NewHistogram(fmt.Sprintf("ack-gap-seconds/conn%d", connID), ackGapBounds)
	lastAck := time.Duration(-1)
	s.OnAckArrival = func(*packet.Packet) {
		now := eng.Now()
		if !acks.put(now) {
			acks.addSlow(now)
		}
		if lastAck >= 0 {
			ackGapHist.Observe((now - lastAck).Seconds())
		}
		lastAck = now
	}
	rttSeries := trace.NewSeries(fmt.Sprintf("rtt-%d", connID))
	res.RTT[k] = rttSeries
	rtt := b.logs.series(lp, rttSeries, true)
	rttHist := metrics.NewHistogram(fmt.Sprintf("rtt-seconds/conn%d", connID), rttBounds)
	s.OnRTTSample = func(m time.Duration) {
		rtt.add(eng.Now(), m.Seconds())
		rttHist.Observe(m.Seconds())
	}
	collapses := newLog(&b.logs, &lp.collapses, &res.Collapses[k], true)
	s.OnCollapse = func(cause string) {
		collapses.add(CollapseEvent{eng.Now(), cause})
	}
}

// events schedules the mid-run link events. Each event's routing
// consequences are computed here, at build time, on a private clone of
// the compiled topology: ApplyLinkChange returns exactly the switches
// whose forwarding rows move, and each one's new row is captured by
// reference — rows are immutable, so later events on the clone cannot
// disturb it. At simulation time the pre-scheduled callbacks just point
// the switch at its new row (and, for bandwidth events, re-rate the trunk
// ports). One callback is scheduled per changed switch and per re-rated
// port direction, each on its own region's engine — so the total engine
// event count is the same at every shard count — and scheduling happens
// during build, so every callback's engine seq precedes every same-time
// packet event in serial and sharded runs alike. That is what keeps runs
// with events byte-identical at every shard count. A down link only
// changes routing: packets already queued on, or in flight over, the line
// still drain and deliver. Propagation delays never change, so the
// sharded runner's MinCutDelay lookahead stays valid.
func (b *build) events() error {
	cfg, topo := &b.cfg, b.topo
	if len(cfg.Events) == 0 {
		return nil
	}
	work := topo.Clone()
	curBW := make(map[int]int64, len(cfg.Events))
	return cfg.ReplayEvents(work, func(_ int, ev LinkEvent, _ time.Duration, changed []int) {
		li := ev.Link
		l := topo.Links[li]
		if _, ok := curBW[li]; !ok {
			curBW[li] = l.Bandwidth
		}
		if !ev.Down && ev.Bandwidth != curBW[li] {
			curBW[li] = ev.Bandwidth
			bw := ev.Bandwidth
			for dir, at := range [2]int{l.A, l.B} {
				pt := b.trunks[li][dir]
				b.engs[b.regionOf(at)].ScheduleAt(ev.T, func() { pt.SetBandwidth(bw) })
			}
		}
		for _, s := range changed {
			sw := b.switches[s]
			row := work.Row(s)
			b.engs[b.regionOf(s)].ScheduleAt(ev.T, func() { sw.SetRow(1, row) })
		}
	})
}

// assemble makes the shard runner of a partitioned run, refuses a run
// its tracers cannot name, and hands everything to the Sim.
func (b *build) assemble() (*Sim, error) {
	var runner *shard.Runner
	if b.part != nil {
		regions := make([]*shard.Region, len(b.engs))
		for r := range regions {
			regions[r] = &shard.Region{Eng: b.engs[r], Pool: b.pools[r]}
		}
		runner = shard.NewRunner(regions, b.edges, b.edgeFrom, b.part.MinCutDelay)
	}
	// Nothing has been emitted yet, so a tracer can only have failed at
	// interning: the run has more locations than a trace can name.
	for _, tr := range b.tracers {
		if err := tr.Err(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sm := &Sim{
		cfg:       b.cfg,
		eng:       b.engs[0],
		pool:      b.pools[0],
		engs:      b.engs,
		pools:     b.pools,
		runner:    runner,
		ar:        b.ar,
		logs:      b.logs,
		logPools:  b.logPools,
		res:       b.res,
		switches:  b.switches,
		trunks:    b.trunks,
		senders:   b.senders,
		receivers: b.receivers,
		sinks:     b.sinks,
		tracer:    b.tracers[0],
		tracers:   b.tracers,
		merger:    b.merger,
		checker:   b.checker,
		metrics:   b.metrics,
		epochHist: b.metrics.NewHistogram("epoch-seconds", epochBounds),
	}
	if b.cfg.Obs != nil && b.cfg.Obs.Progress != nil {
		sm.progress = b.cfg.Obs.Progress
		sm.nextProgressT = sm.progress.Every
		sm.nextProgressE = sm.progress.EveryEvents
	}
	return sm, nil
}
