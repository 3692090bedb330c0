package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// CollapseEvent records one congestion-window collapse of a sender.
type CollapseEvent struct {
	T     time.Duration
	Cause string // "dupack" or "timeout"
}

// Result carries everything a scenario run produced. Trunk index i is
// topology link i — for line topologies, the line between switch i and
// switch i+1 — and direction 0 transmits A→B (rightward on a line),
// direction 1 B→A (leftward).
type Result struct {
	Cfg Config
	// Topo is the compiled topology the run was built from: resolved
	// link parameters, host placement, and forwarding tables.
	Topo *topology.Compiled

	// TrunkQueue[i][dir] is the queue-length series of the port feeding
	// trunk i in the given direction. For the dumbbell, TrunkQueue[0][0]
	// is the paper's "queue at switch 1" and TrunkQueue[0][1] the "queue
	// at switch 2". Entries are nil for trunks excluded by
	// Config.MeasureTrunks (likewise TrunkDeps; and Cwnd/AckArrivals/
	// RTT/Collapses for connections excluded by Config.MeasureConns).
	TrunkQueue [][2]*trace.Series
	// TrunkUtil[i][dir] is the trunk utilization over the measurement
	// window.
	TrunkUtil [][2]float64
	// TrunkDeps[i][dir] is the departure log of the trunk port.
	TrunkDeps [][2][]trace.Departure

	// Cwnd[k] is connection k's congestion-window series.
	Cwnd []*trace.Series
	// Drops collects every drop-tail discard in the network.
	Drops []trace.DropEvent
	// AckArrivals[k] lists the times ACKs reached connection k's sender.
	AckArrivals [][]time.Duration
	// RTT[k] is connection k's measured round-trip-time series (one
	// point per Karn-accepted sample) — the raw material of the §4.3.1
	// effective-pipe analysis.
	RTT []*trace.Series
	// Collapses[k] lists connection k's window collapses.
	Collapses [][]CollapseEvent

	// SenderStats and ReceiverStats are the final per-connection
	// counters.
	SenderStats   []tcp.SenderStats
	ReceiverStats []tcp.ReceiverStats
	// Delivered[k] is the final cumulative in-order sequence at
	// connection k's receiver.
	Delivered []int
	// Goodput[k] is the number of packets delivered in order to
	// connection k's receiver within the measurement window — the basis
	// for fairness comparisons.
	Goodput []int

	// MeasureFrom/MeasureTo bound the measurement window (warmup end to
	// run end).
	MeasureFrom, MeasureTo time.Duration

	// Events is the number of simulator events processed (for benches).
	Events uint64

	// Metrics is the run's metrics registry (queue occupancy, per-conn
	// RTT, ACK inter-arrival, epoch lengths, final counters). Nil unless
	// Config.Obs.Metrics was set.
	Metrics *obs.Metrics
	// TraceErr is the first error the trace sink reported, if tracing
	// was enabled. A sink failure never interrupts the simulation; it
	// surfaces here.
	TraceErr error
	// Invariant is the first invariant violation the online checker
	// found, when Config.Invariants was set; nil means the checked
	// stream was clean. The same violation also surfaces through
	// TraceErr (the checker reports it as the sink error), but here it
	// keeps its type: rule, event index, location, offending event.
	Invariant *tstore.Violation
}

// Q1 returns the dumbbell's switch-1 bottleneck queue series (nil if
// trunk 0 was excluded by Config.MeasureTrunks).
func (r *Result) Q1() *trace.Series { return r.TrunkQueue[0][0] }

// Q2 returns the dumbbell's switch-2 bottleneck queue series.
func (r *Result) Q2() *trace.Series { return r.TrunkQueue[0][1] }

// UtilForward returns the dumbbell bottleneck utilization carrying data
// of connections sending rightward (host 0 → host 1).
func (r *Result) UtilForward() float64 { return r.TrunkUtil[0][0] }

// UtilReverse returns the opposite direction's utilization.
func (r *Result) UtilReverse() float64 { return r.TrunkUtil[0][1] }

// Run builds the scenario and executes it to completion, panicking on
// an invalid configuration. It is the MustRun-style convenience for
// trusted, programmatic configs; callers handling external input
// should use RunE or RunContext.
//
// Run (and RunE/RunContext) draw a warm Arena from a process-wide pool,
// so back-to-back runs reuse engine buckets, the event free list, and
// the packet free list instead of reallocating them. This is invisible
// to results — arena reuse is behavior-neutral by the same contract as
// packet pooling — but it does mean the pool/* diagnostic metrics count
// per-run pool misses, which a warm arena keeps near zero.
func Run(cfg Config) *Result {
	a := getArena()
	res := a.Run(cfg)
	putArena(a)
	return res
}

// RunE builds and executes the scenario, returning configuration and
// topology-compilation problems as errors instead of panicking.
func RunE(cfg Config) (*Result, error) {
	a := getArena()
	res, err := a.RunE(cfg)
	putArena(a)
	return res, err
}

// RunContext is RunE with cancellation: when ctx is canceled the run
// stops within one event batch (at most a few thousand events) and
// returns ctx's error. The partially executed Sim is discarded
// cleanly — per-run state (packet pool included) is never shared
// between live runs, and an arena rebuilding over a canceled run
// resets the engine first — so cancellation cannot corrupt other runs.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	a := getArena()
	res, err := a.RunContext(ctx, cfg)
	putArena(a)
	return res, err
}

// Sim is a built, runnable scenario: the network is wired, the
// connection starts are scheduled, and the clock is at zero. Run is
// Build + Finish; the split exists so callers (steady-state benchmarks,
// future live dashboards) can advance the simulation in increments.
type Sim struct {
	cfg  Config
	eng  *sim.Engine
	pool *packet.Pool
	res  *Result

	// Sharded-run state (cfg.Shards > 1): one engine/pool per region and
	// the conservative-PDES coordinator. Serial runs keep runner nil and
	// engs/pools hold the single eng/pool. eng and pool always alias
	// region 0.
	engs     []*sim.Engine
	pools    []*packet.Pool
	runner   *shard.Runner
	dropLogs [][]dropRec
	// logs is the arena storage the run's logs were taken from and finish
	// settles with; nil without an arena (the Result keeps its arrays).
	logs *logSlabs

	switches  []*node.Switch
	trunks    [][2]*link.Port
	senders   []*tcp.Sender
	receivers []*tcp.Receiver
	// sinks[k] is connection k's counting sink when ConnSpec.Source
	// replaces the TCP endpoints; senders[k]/receivers[k] are then nil.
	sinks []*node.Sink

	// Observability (all nil/zero when cfg.Obs is unset). The tracer and
	// metrics registry are created at build time so every instrument is
	// registered in deterministic order before the first event.
	tracer   *obs.Tracer
	metrics  *obs.Metrics
	progress *obs.Progress
	// tracers/merger are the sharded tracing path: one tracer per region
	// feeding a merged sink (obs.TraceMerger). Serial runs leave them
	// nil; tracer then is the single tracer.
	tracers []*obs.Tracer
	merger  *obs.TraceMerger
	// checker is the online invariant engine interposed before the trace
	// sink when cfg.Invariants is set.
	checker *tstore.Checker
	// nextProgressT/nextProgressE are the next progress-sample
	// thresholds on the time and event axes.
	nextProgressT time.Duration
	nextProgressE uint64
	// epochHist receives inter-collapse intervals at finish time.
	epochHist *obs.Histogram

	// Warmup-boundary snapshots: measurement baselines taken exactly at
	// cfg.Warmup, regardless of the RunUntil step pattern.
	warmSnapped   bool
	busyAt        [][2]time.Duration
	deliveredWarm []int

	finished bool
}

// Now returns the current simulated time: the engine clock, or — for a
// sharded run — the last completed synchronization barrier.
func (s *Sim) Now() time.Duration {
	if s.runner != nil {
		return s.runner.Now()
	}
	return s.eng.Now()
}

// Events returns the number of engine events processed so far, summed
// over all regions for a sharded run.
func (s *Sim) Events() uint64 {
	if s.runner != nil {
		return s.runner.Events()
	}
	return s.eng.Processed()
}

// Pool returns the run's packet pool (nil when cfg.noPool).
func (s *Sim) Pool() *packet.Pool { return s.pool }

// TraceStats reports what the run's tracer(s) delivered so far and how its
// sink kept up. Not in Result: equal runs need not wait equally.
func (s *Sim) TraceStats() obs.TraceStats {
	var st obs.TraceStats
	for _, tr := range s.tracers {
		r := tr.Stats()
		st.Events += r.Events
		st.Batches += r.Batches
		st.SinkWaits += r.SinkWaits
		st.SinkWait += r.SinkWait
	}
	return st
}

// RunUntil advances the simulation to time t. Crossing cfg.Warmup takes
// the measurement-baseline snapshot at exactly the warmup boundary, so
// any step pattern yields the same measurements as one straight run.
func (s *Sim) RunUntil(t time.Duration) {
	s.runUntil(nil, t)
}

// runUntil is RunUntil with optional cancellation (nil ctx never
// cancels).
func (s *Sim) runUntil(ctx context.Context, t time.Duration) error {
	// The sink contract's join (DESIGN.md §10, point 2): however the call
	// ends, no batch is left at the sink. The partial ring stays put.
	defer s.tracer.Err()
	if !s.warmSnapped && t >= s.cfg.Warmup {
		if err := s.span(ctx, s.cfg.Warmup); err != nil {
			return err
		}
		s.snapshotWarmup()
	}
	return s.span(ctx, t)
}

// span advances the engine to time t. With no cancellation and no
// progress observer it is a single uninterrupted RunUntil — the
// zero-overhead path. Otherwise the engine runs in bounded batches
// with checks between them; the batching never schedules events, so
// the event sequence (and hence the Result) is identical either way.
func (s *Sim) span(ctx context.Context, t time.Duration) error {
	if s.runner != nil {
		return s.runner.Span(ctx, t, s.barrier)
	}
	if ctx == nil && s.progress == nil {
		s.eng.RunUntil(t)
		return nil
	}
	const batch = 4096
	for {
		done := s.eng.RunUntilN(t, batch)
		s.observeProgress()
		if done {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// barrier runs after every completed shard synchronization round: it
// samples progress and merges the regions' trace streams, which are
// complete (and final) up to the barrier time.
func (s *Sim) barrier(now time.Duration, events uint64) {
	s.observeProgressAt(now, events)
	if s.merger != nil {
		for _, tr := range s.tracers {
			tr.Flush()
		}
		s.merger.Merge()
	}
}

// observeProgress fires the progress callback if an axis threshold was
// crossed since the last batch (or on every batch when no axis is
// configured).
func (s *Sim) observeProgress() {
	s.observeProgressAt(s.eng.Now(), s.eng.Processed())
}

func (s *Sim) observeProgressAt(now time.Duration, events uint64) {
	p := s.progress
	if p == nil {
		return
	}
	fire := p.Every == 0 && p.EveryEvents == 0
	if p.Every > 0 && now >= s.nextProgressT {
		fire = true
		for now >= s.nextProgressT {
			s.nextProgressT += p.Every
		}
	}
	if p.EveryEvents > 0 && events >= s.nextProgressE {
		fire = true
		for events >= s.nextProgressE {
			s.nextProgressE += p.EveryEvents
		}
	}
	if fire && p.Fn != nil {
		p.Fn(obs.Snapshot{Now: now, End: s.cfg.Duration, Events: events})
	}
}

// snapshotWarmup records the trunk busy time and receiver progress at
// the warmup boundary; measurements are deltas from here.
func (s *Sim) snapshotWarmup() {
	s.warmSnapped = true
	s.busyAt = make([][2]time.Duration, len(s.trunks))
	for i := range s.trunks {
		s.busyAt[i][0] = s.trunks[i][0].Stats().Busy
		s.busyAt[i][1] = s.trunks[i][1].Stats().Busy
	}
	s.deliveredWarm = make([]int, len(s.receivers))
	for k := range s.receivers {
		switch {
		case s.receivers[k] != nil:
			s.deliveredWarm[k] = s.receivers[k].RcvNxt()
		case s.sinks[k] != nil:
			s.deliveredWarm[k] = s.sinks[k].Received()
		}
	}
}

// Finish runs the scenario to cfg.Duration and computes the final
// statistics. It is idempotent; the first call finalizes the Result.
func (s *Sim) Finish() *Result {
	res, _ := s.finish(nil) // nil ctx never cancels
	return res
}

// FinishContext is Finish with cancellation: when ctx is canceled the
// run stops within one event batch and returns ctx's error without
// finalizing. The Sim stays resumable — a later Finish/FinishContext
// call continues from exactly where the canceled one stopped, with
// pool and measurement state intact.
func (s *Sim) FinishContext(ctx context.Context) (*Result, error) {
	return s.finish(ctx)
}

func (s *Sim) finish(ctx context.Context) (*Result, error) {
	if s.finished {
		return s.res, nil
	}
	if err := s.runUntil(ctx, s.cfg.Warmup); err != nil {
		return nil, err
	}
	if err := s.runUntil(ctx, s.cfg.Duration); err != nil {
		return nil, err
	}
	s.finished = true

	res, cfg := s.res, s.cfg
	nc := len(cfg.Conns)
	window := cfg.Duration - cfg.Warmup
	for i := range s.trunks {
		for dir := range s.trunks[i] {
			res.TrunkUtil[i][dir] = float64(s.trunks[i][dir].Stats().Busy-s.busyAt[i][dir]) / float64(window)
		}
	}
	res.SenderStats = make([]tcp.SenderStats, nc)
	res.ReceiverStats = make([]tcp.ReceiverStats, nc)
	res.Delivered = make([]int, nc)
	res.Goodput = make([]int, nc)
	for k := range s.senders {
		if s.senders[k] == nil {
			// A source connection: its traffic is counted by the sink; the
			// TCP stats stay zero.
			if sk := s.sinks[k]; sk != nil {
				res.Delivered[k] = sk.Received()
				res.Goodput[k] = res.Delivered[k] - s.deliveredWarm[k]
			}
			continue
		}
		res.SenderStats[k] = s.senders[k].Stats()
		res.ReceiverStats[k] = s.receivers[k].Stats()
		res.Delivered[k] = s.receivers[k].RcvNxt()
		res.Goodput[k] = res.Delivered[k] - s.deliveredWarm[k]
	}
	res.Events = s.Events()
	s.mergeDrops()
	if s.logs != nil {
		// Here the Result becomes visible: it must own all it references.
		s.logs.settle(res, s.dropLogs)
	}
	s.exportMetrics()
	if s.merger != nil {
		// Region tracers first (each Close flushes its remaining ring into
		// the merger's buffers), then the final merge, then the user sink.
		for _, tr := range s.tracers {
			tr.Close()
		}
		s.merger.Merge()
		res.TraceErr = s.merger.Close()
	} else if s.tracer != nil {
		res.TraceErr = s.tracer.Close()
	}
	if s.checker != nil {
		res.Invariant = s.checker.Violation()
	}
	return res, nil
}

// dropRec is one region's drop record plus the scheduling lineage of
// the event that executed the drop, the key that merges the per-region
// logs back into the serial order.
type dropRec struct {
	trace.DropEvent
	schedAt, schedAt2 sim.Time
}

// mergeDrops merges the per-region drop logs into res.Drops in a
// canonical, partition-independent order: by time, then by the
// executing event's scheduling lineage, then by the drop's own content.
// Within one region the log is already time-ordered (events execute in
// time order), but two regions can drop at the same instant with tied
// lineage — perfectly mirrored two-way traffic does exactly that — and
// no local information recovers the serial engine's same-instant
// interleaving. So every run, the serial one included, sorts by the
// same key: the multiset of records is identical for every shard count
// (injected cross-region events carry the serial lineage by
// construction), hence so is the sorted log.
//
// The logs never escape, so one region's log is sorted where it lies
// and several regions' are concatenated in a scratch the arena keeps.
func (s *Sim) mergeDrops() {
	recs := s.dropLogs[0]
	if len(s.dropLogs) > 1 && s.logs == nil {
		recs = slices.Concat(s.dropLogs...)
	} else if len(s.dropLogs) > 1 {
		recs = s.logs.merge[:0]
		for _, l := range s.dropLogs {
			recs = append(recs, l...)
		}
		s.logs.merge = recs
	}
	if len(recs) == 0 {
		return
	}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.schedAt != b.schedAt {
			return a.schedAt < b.schedAt
		}
		if a.schedAt2 != b.schedAt2 {
			return a.schedAt2 < b.schedAt2
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		if a.Conn != b.Conn {
			return a.Conn < b.Conn
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Kind < b.Kind
	})
	s.res.Drops = make([]trace.DropEvent, len(recs))
	for i := range recs {
		s.res.Drops[i] = recs[i].DropEvent
	}
}

// exportMetrics fills the finish-time counters, gauges, and the epoch
// histogram. Build-time histograms (queue occupancy, RTT, ACK
// inter-arrival) were fed during the run.
func (s *Sim) exportMetrics() {
	m := s.metrics
	if m == nil {
		return
	}
	res := s.res
	var drops, dataSent, rtx, timeouts, acks, collapses, delivered float64
	for k := range res.SenderStats {
		st := &res.SenderStats[k]
		dataSent += float64(st.DataSent)
		rtx += float64(st.Retransmits)
		timeouts += float64(st.Timeouts)
		acks += float64(st.AcksReceived)
		collapses += float64(st.Collapses)
		delivered += float64(res.Delivered[k])
	}
	drops = float64(len(res.Drops))
	m.NewCounter("core/events").Add(float64(res.Events))
	m.NewCounter("tcp/data-sent").Add(dataSent)
	m.NewCounter("tcp/retransmits").Add(rtx)
	m.NewCounter("tcp/timeouts").Add(timeouts)
	m.NewCounter("tcp/acks-received").Add(acks)
	m.NewCounter("tcp/collapses").Add(collapses)
	m.NewCounter("tcp/delivered").Add(delivered)
	m.NewCounter("link/drops").Add(drops)
	if s.pool != nil {
		var allocs, recycled float64
		for _, p := range s.pools {
			allocs += float64(p.Allocs())
			recycled += float64(p.Recycled())
		}
		m.NewCounter("pool/allocs").Add(allocs)
		m.NewCounter("pool/recycled").Add(recycled)
	}
	for i := range s.trunks {
		for dir := range s.trunks[i] {
			pt := s.trunks[i][dir]
			m.NewGauge("util/" + pt.Name()).Set(res.TrunkUtil[i][dir])
			if q := res.TrunkQueue[i][dir]; q != nil { // nil when the trunk is unmeasured
				m.NewGauge("queue-mean/" + pt.Name()).Set(
					q.TimeAverage(res.MeasureFrom, res.MeasureTo))
			}
		}
	}
	for k := range res.Cwnd {
		if res.Cwnd[k] == nil { // unmeasured connection
			continue
		}
		if last, ok := res.Cwnd[k].Last(); ok {
			m.NewGauge(fmt.Sprintf("cwnd-final/conn%d", k+1)).Set(last.V)
		}
	}
	// Epoch lengths: the interval between successive window collapses of
	// one connection — the paper's congestion-epoch period.
	for k := range res.Collapses {
		evs := res.Collapses[k]
		for i := 1; i < len(evs); i++ {
			s.epochHist.Observe((evs[i].T - evs[i-1].T).Seconds())
		}
	}
}

// Build assembles the scenario: topology, instrumentation, connections,
// and scheduled start times. The returned Sim has not executed any
// events yet. Build panics on an invalid configuration; BuildE returns
// the problem as an error.
func Build(cfg Config) *Sim {
	s, err := BuildE(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// BuildE is Build with error reporting: configuration validation and
// topology compilation problems come back as errors instead of panics.
func BuildE(cfg Config) (*Sim, error) {
	return buildE(cfg, nil)
}

// buildE assembles the Sim, drawing engine, packet pool, and trace ring
// from ar when non-nil (Arena reuse) and allocating fresh ones when nil.
func buildE(cfg Config, ar *Arena) (_ *Sim, err error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	topo, err := cfg.CompileTopology()
	if err != nil {
		return nil, err
	}
	// Measurement gating: nil means measure everything (the historical
	// default); a non-nil MeasureTrunks/MeasureConns restricts per-trunk
	// and per-connection instrumentation to the listed indices. Gating
	// only decides whether observation state is allocated and hooks
	// installed — it never touches forwarding, queueing, or the TCP state
	// machines — so a gated run's Delivered/SenderStats/TrunkUtil match
	// an ungated one exactly (asserted by measure_gate_test.go).
	var trunkMeasured, connMeasured []bool
	if cfg.MeasureTrunks != nil {
		trunkMeasured = make([]bool, len(topo.Links))
		for _, li := range cfg.MeasureTrunks {
			if li < 0 || li >= len(topo.Links) {
				return nil, fmt.Errorf("core: MeasureTrunks names link %d, out of range [0,%d)", li, len(topo.Links))
			}
			trunkMeasured[li] = true
		}
	}
	if cfg.MeasureConns != nil {
		connMeasured = make([]bool, len(cfg.Conns))
		for _, k := range cfg.MeasureConns {
			connMeasured[k] = true // indices validated by normalize
		}
	}
	// Region partition. K > 1 splits the switch graph into regions, each
	// simulated by its own engine (internal/shard); K == 1 is the serial
	// path, bit-identical to the pre-shard simulator.
	K := cfg.Shards
	var part *topology.Partition
	if K > 1 {
		if len(cfg.Regions) > 0 {
			part, err = topo.PartitionWith(cfg.Regions)
		} else {
			part, err = topo.Partition(K)
		}
		if err != nil {
			return nil, err
		}
		if K = part.K; K == 1 {
			part = nil
		}
	} else {
		K = 1
	}
	regionOf := func(sw int) int {
		if part == nil {
			return 0
		}
		return part.Region[sw]
	}

	// Streaming invariants: interpose an online checker between the
	// tracer(s) and the user's sink — or make the checker the sink when
	// no tracing was requested. The checker sees the merged, time-ordered
	// stream (after the TraceMerger for sharded runs), observes only, and
	// reports the first violation through Result.Invariant/TraceErr.
	var checker *tstore.Checker
	if cfg.Invariants != nil {
		o := *cfg.Invariants
		obsOpts := obs.Options{}
		if cfg.Obs != nil {
			obsOpts = *cfg.Obs
		}
		var to obs.TraceOptions
		if obsOpts.Trace != nil {
			to = *obsOpts.Trace
		}
		if to.Filter != (obs.Filter{}) && !o.NoConservation {
			return nil, fmt.Errorf("core: Invariants cannot check conservation over a filtered trace; drop Obs.Trace.Filter or set Invariants.NoConservation")
		}
		if o.MaxCwnd == nil && !o.NoCwndBounds {
			o.MaxCwnd = make(map[int]float64, len(cfg.Conns))
			for k := range cfg.Conns {
				w := cfg.Conns[k].MaxWnd
				if f := cfg.Conns[k].FixedWnd; f > w {
					w = f
				}
				o.MaxCwnd[k+1] = float64(w)
			}
		}
		checker = tstore.NewChecker(to.Sink, o)
		to.Sink = checker
		obsOpts.Trace = &to
		cfg.Obs = &obsOpts
	}

	// Observability instruments. All stay nil when cfg.Obs is unset; nil
	// instruments no-op at every call site.
	var (
		tracers  = make([]*obs.Tracer, K)
		merger   *obs.TraceMerger
		metrics  *obs.Metrics
		progress *obs.Progress
	)
	if cfg.Obs != nil {
		if cfg.Obs.Trace != nil {
			if K > 1 {
				// Every region traces into its own ring; the merger
				// reassembles one time-ordered stream for the user's sink
				// at each synchronization barrier. A region's sink is an
				// append to the merger's buffer: delivered inline.
				merger = obs.NewTraceMerger(cfg.Obs.Trace.Sink, K)
				for r := 0; r < K; r++ {
					o := *cfg.Obs.Trace
					o.Sink = merger.Buffer(r)
					tracers[r] = obs.NewTracerReusing(o, ar.shardRing(r), false)
				}
				ar.keepTracers(tracers)
			} else {
				// The user's sink, behind the checker if any: overlapped.
				tracers[0] = obs.NewTracerReusing(*cfg.Obs.Trace, ar.traceRing(), true)
				ar.keepTracer(tracers[0])
			}
		}
		if cfg.Obs.Metrics {
			metrics = obs.NewMetrics()
		}
		if cfg.Obs.Progress != nil {
			progress = cfg.Obs.Progress
		}
	}
	tracer := tracers[0]
	engs := ar.engines(cfg.Sched, K)
	eng := engs[0]
	// Sharded engines hand out strided seqs so the coordinator can
	// interpolate cross-region arrivals between them; serial engines keep
	// the historical counter. Always set — an arena-reused engine retains
	// the previous run's stride.
	stride := uint64(1)
	if K > 1 {
		stride = shard.Stride
	}
	for _, e := range engs {
		e.SetSeqStride(stride)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// One packet free list per run and per region — packet pointers never
	// cross region goroutines — so at steady state the whole simulation
	// recycles rather than allocates. noPool keeps the old allocate-and-
	// discard behavior (the determinism tests compare the two).
	pools := make([]*packet.Pool, K)
	if !cfg.noPool {
		pools = ar.packetPools(K)
	}
	pool := pools[0]

	res := &Result{
		Cfg:         cfg,
		Topo:        topo,
		MeasureFrom: cfg.Warmup,
		MeasureTo:   cfg.Duration,
	}

	// Every per-run log is taken from the arena's slabs or (a cold slot, no
	// arena) allocated at an estimate from the run length, and grown by
	// append past it: the arena keeps the grown slab, so a warm run does not
	// regrow. A build that fails from here on gives back what it took.
	logs := new(logSlabs)
	if ar != nil {
		logs = &ar.logs
		logs.rewind()
	}

	// instrumentDrops wires a port's drop hook into the drop log: per
	// region, tagged with the executing event's scheduling lineage, and
	// canonically ordered at finish (Sim.mergeDrops). Serial runs use the
	// identical path with a single region, so every shard count produces
	// the same byte-identical res.Drops.
	dropLogs := make([][]dropRec, K)
	for r := range dropLogs {
		dropLogs[r] = logs.drops.take(0)
	}
	defer func() {
		if err != nil {
			logs.settle(res, dropLogs)
		}
	}()
	instrumentDrops := func(eng *sim.Engine, region int, pt *link.Port) {
		name := pt.Name()
		pt.OnDrop = func(p *packet.Packet) {
			sa, sa2 := eng.ExecLineage()
			dropLogs[region] = append(dropLogs[region], dropRec{
				DropEvent: trace.DropEvent{
					T: eng.Now(), Conn: p.Conn, Seq: p.Seq, Kind: p.Kind, Port: name,
				},
				schedAt:  sa,
				schedAt2: sa2,
			})
		}
	}

	// Build the switches and the hosts at their attachment points. Host
	// h gets ID h+1, the identifier packets carry in Src/Dst. A host
	// lives on its switch's region engine, so host-switch links never
	// cross a region boundary.
	nSw := topo.Switches
	nh := topo.NumHosts()
	nl := len(topo.Links)
	nc := len(cfg.Conns)
	switches, hosts, trunks, senders, receivers := ar.wiring(nSw, nh, nl, nc)
	for i := 0; i < nSw; i++ {
		switches[i] = node.NewSwitch(i)
	}
	for h := 0; h < nh; h++ {
		hosts[h] = node.NewHost(engs[regionOf(topo.HostSwitch(h))], h+1, cfg.HostProcessing)
	}

	// Host <-> switch access links. The host's own interface buffer is
	// unbounded (a source may always burst into its own NIC); the
	// switch's port toward the host uses the switch buffer, per §2.2.
	// queueSpecFor resolves a port's queue spec: the per-link override,
	// then the global Queue, then nil (drop-tail). li is the topology
	// link index, or -1 for switch→host access ports, which take only
	// the global spec.
	queueSpecFor := func(li int) *link.QueueSpec {
		if li >= 0 && cfg.LinkQueue != nil {
			if qs := cfg.LinkQueue[li]; qs != nil {
				return qs
			}
		}
		return cfg.Queue
	}
	// discFor builds the discipline for the port with stable entity
	// index ent (host down-ports in host order, then trunk ports as
	// nh + 2·link + dir). A nil spec returns nil: NewPort's drop-tail
	// default, with no allocation here and no RNG draw. Stochastic
	// policies get their own entitySeed stream rather than a shared-RNG
	// draw, which is what keeps them deterministic across shard counts.
	discFor := func(li, ent int) (link.Disc, error) {
		qs := queueSpecFor(li)
		if qs == nil {
			return nil, nil
		}
		var r *rand.Rand
		if qs.NeedsRand() {
			r = rand.New(rand.NewSource(entitySeed(cfg.Seed, seedKindQueue, ent)))
		}
		return qs.Build(r)
	}
	// behaviorFor builds the link behavior for trunk port 2·link + dir.
	// Each direction owns its Impairment (the loss/jitter state is
	// per-line); the RateTrace inside a spec is stateless and shared.
	behaviorFor := func(li, dir int) (link.Behavior, error) {
		bs := cfg.Behavior
		if cfg.LinkBehavior != nil {
			if o := cfg.LinkBehavior[li]; o != nil {
				bs = o
			}
		}
		if bs.IsZero() {
			return nil, nil
		}
		var r *rand.Rand
		if bs.NeedsRand() {
			r = rand.New(rand.NewSource(entitySeed(cfg.Seed, seedKindBehavior, 2*li+dir)))
		}
		return bs.Build(r)
	}

	for h := 0; h < nh; h++ {
		sw := topo.HostSwitch(h)
		rg := regionOf(sw)
		eng, pool, tracer := engs[rg], pools[rg], tracers[rg]
		up := link.NewPort(eng, link.Config{
			Name:      fmt.Sprintf("h%d->sw%d", h+1, sw),
			Bandwidth: cfg.AccessBandwidth,
			Delay:     cfg.AccessDelay,
			Buffer:    queueUnbounded,
			Pool:      pool,
			Obs:       tracer,
		}, switches[sw])
		hosts[h].SetOutput(up)
		disc, err := discFor(-1, h)
		if err != nil {
			return nil, err
		}
		down := link.NewPort(eng, link.Config{
			Name:      fmt.Sprintf("sw%d->h%d", sw, h+1),
			Bandwidth: cfg.AccessBandwidth,
			Delay:     cfg.AccessDelay,
			Buffer:    cfg.Buffer,
			Disc:      disc,
			Pool:      pool,
			Obs:       tracer,
		}, hosts[h])
		switches[sw].AddLocal(h+1, down)
		instrumentDrops(eng, rg, down)
		if tracer != nil {
			hosts[h].SetObs(tracer, fmt.Sprintf("host%d", h+1))
		}
	}

	// Trunk ports, one pair per topology link, instrumented. estPkts is
	// the unit of the logs' cold reserve.
	estPkts := estTrunkPackets(cfg)
	res.TrunkQueue = make([][2]*trace.Series, nl)
	res.TrunkDeps = make([][2][]trace.Departure, nl)
	res.TrunkUtil = make([][2]float64, nl)
	var (
		edges    []*shard.Edge
		edgeFrom []int
	)
	for li, l := range topo.Links {
		// The forward port lives at switch A, the reverse at switch B; a
		// link whose endpoints fall in different regions is a cut link,
		// and its ports hand finished transmissions to a shard edge
		// (Config.Cross) instead of scheduling the propagation locally.
		rgs := [2]int{regionOf(l.A), regionOf(l.B)}
		var cross [2]sim.PacketSink
		if rgs[0] != rgs[1] {
			fe := &shard.Edge{Delay: l.Delay, To: rgs[1], Dst: switches[l.B]}
			re := &shard.Edge{Delay: l.Delay, To: rgs[0], Dst: switches[l.A]}
			edges = append(edges, fe, re)
			edgeFrom = append(edgeFrom, rgs[0], rgs[1])
			cross[0], cross[1] = fe, re
		}
		fwdDisc, err := discFor(li, nh+2*li)
		if err != nil {
			return nil, err
		}
		revDisc, err := discFor(li, nh+2*li+1)
		if err != nil {
			return nil, err
		}
		fwdBeh, err := behaviorFor(li, 0)
		if err != nil {
			return nil, err
		}
		revBeh, err := behaviorFor(li, 1)
		if err != nil {
			return nil, err
		}
		fwd := link.NewPort(engs[rgs[0]], link.Config{
			Name:      fmt.Sprintf("sw%d->sw%d", l.A, l.B),
			Bandwidth: l.Bandwidth,
			Delay:     l.Delay,
			Buffer:    l.Buffer,
			Disc:      fwdDisc,
			Behavior:  fwdBeh,
			Pool:      pools[rgs[0]],
			Obs:       tracers[rgs[0]],
			Cross:     cross[0],
		}, switches[l.B])
		rev := link.NewPort(engs[rgs[1]], link.Config{
			Name:      fmt.Sprintf("sw%d->sw%d", l.B, l.A),
			Bandwidth: l.Bandwidth,
			Delay:     l.Delay,
			Buffer:    l.Buffer,
			Disc:      revDisc,
			Behavior:  revBeh,
			Pool:      pools[rgs[1]],
			Obs:       tracers[rgs[1]],
			Cross:     cross[1],
		}, switches[l.A])
		trunks[li] = [2]*link.Port{fwd, rev}
		if trunkMeasured != nil && !trunkMeasured[li] {
			// Unmeasured trunk: forwarding, dropping, and utilization
			// only — no queue series, departure log, queue histogram, or
			// drop records. A measured trunk preallocates run-length trace
			// containers; an unmeasured one costs just its two ports.
			continue
		}
		for dir, pt := range trunks[li] {
			li, dir, pt := li, dir, pt
			eng := engs[rgs[dir]]
			// One queue-length point per accepted arrival and per
			// departure; the trunk carries roughly one direction's data
			// plus the other's ACKs.
			s := trace.NewSeries(pt.Name())
			s.Points = logs.points.take(clampReserve(4 * estPkts))
			s.Append(0, 0)
			res.TrunkQueue[li][dir] = s
			qh := metrics.NewHistogram("queue/"+pt.Name(), queueBounds)
			pt.OnQueueLen = func(qlen int) {
				s.Append(eng.Now(), float64(qlen))
				qh.Observe(float64(qlen))
			}
			res.TrunkDeps[li][dir] = logs.deps.take(clampReserve(2 * estPkts))
			pt.OnDepart = func(p *packet.Packet) {
				res.TrunkDeps[li][dir] = append(res.TrunkDeps[li][dir], trace.Departure{
					T: eng.Now(), Conn: p.Conn, Kind: p.Kind, Seq: p.Seq,
				})
			}
			instrumentDrops(eng, rgs[dir], pt)
		}
	}

	// Forwarding tables. A switch does not copy its routes: it gets the
	// ports behind its adjacency slots (one flat array, sliced per switch
	// like the topology's own adjacency) and then forwards straight from
	// the compiled row — the topology's interned, immutable slices, by
	// reference (base 1: the row's host index h is host ID h+1). Wiring
	// cost is O(switches + links), whatever the number of forwarding
	// intervals.
	slotPorts := make([]*link.Port, 0, 2*nl)
	for s := 0; s < nSw; s++ {
		first := len(slotPorts)
		for i, n := 0, topo.Degree(s); i < n; i++ {
			hop := topo.SlotHop(s, i)
			slotPorts = append(slotPorts, trunks[hop.Link][hop.Dir])
		}
		switches[s].SetPorts(slotPorts[first:len(slotPorts):len(slotPorts)])
		ends, slots := topo.Row(s)
		switches[s].SetRow(1, ends, slots)
	}

	// Connections.
	res.Cwnd = make([]*trace.Series, nc)
	res.AckArrivals = make([][]time.Duration, nc)
	res.RTT = make([]*trace.Series, nc)
	res.Collapses = make([][]CollapseEvent, nc)
	perConn := 0
	if nc > 0 {
		perConn = clampReserve(estPkts / nc)
	}
	sinks := make([]*node.Sink, nc)
	for k, spec := range cfg.Conns {
		k, spec := k, spec
		connID := k + 1
		src, dst := hosts[spec.SrcHost], hosts[spec.DstHost]
		// The sender runs on its host's region engine, the receiver on
		// its own — a connection whose endpoints fall in different
		// regions converses purely through cut-link packets.
		sr := regionOf(topo.HostSwitch(spec.SrcHost))
		dr := regionOf(topo.HostSwitch(spec.DstHost))
		eng, pool, tracer := engs[sr], pools[sr], tracers[sr]
		var srcNet tcp.Network = src
		if spec.ExtraDelay > 0 {
			srcNet = &delayedNet{eng: eng, dst: src, d: spec.ExtraDelay}
		}
		if gen := spec.Source; gen.generates() {
			// A non-TCP source: a generator at the source host, a counting
			// sink at the destination. The TCP instrumentation below does
			// not apply; Delivered/Goodput come from the sink. The start
			// draw stays on the shared RNG (same order as a TCP conn) so a
			// mixed scenario's other start times are unperturbed.
			size := gen.Size
			if size == 0 {
				size = cfg.DataSize
			}
			sink := node.NewSink(pools[dr])
			dst.Attach(connID, sink)
			sinks[k] = sink
			scfg := node.SourceConfig{
				Conn: connID, Src: src.ID(), Dst: dst.ID(),
				Size: size, Rate: gen.Rate,
				IDFirst: uint64(2*k + 1), IDStride: uint64(2 * nc),
				Pool: pool,
			}
			var startFn func()
			if gen.Kind == SourceCBR {
				startFn = node.NewCBRSource(eng, srcNet, scfg).Start
			} else { // SourceOnOff; normalize rejected everything else
				srng := rand.New(rand.NewSource(entitySeed(cfg.Seed, seedKindSource, k)))
				startFn = node.NewOnOffSource(eng, srcNet, scfg, gen.OnMean, gen.OffMean, srng).Start
			}
			start := spec.Start
			if start < 0 {
				start = time.Duration(rng.Int63n(int64(cfg.StartSpread)))
			}
			eng.ScheduleAt(start, startFn)
			continue
		}
		// Per-endpoint packet-ID generators (sender k mints 2k+1,
		// 2k+1+2nc, …; receiver k mints 2k+2, …): the IDs an endpoint
		// assigns cannot depend on how the topology is partitioned, which
		// a counter shared in global schedule order would.
		s := tcp.NewSender(eng, srcNet, tcp.NewIDGen(uint64(2*k+1), uint64(2*nc)), tcp.SenderConfig{
			Conn:             connID,
			SrcHost:          src.ID(),
			DstHost:          dst.ID(),
			MaxWnd:           spec.MaxWnd,
			DataSize:         cfg.DataSize,
			FixedWnd:         spec.FixedWnd,
			OriginalIncrease: spec.OriginalIncrease,
			Reno:             spec.Reno,
			Pace:             spec.Pace,
			Pool:             pool,
		})
		r := tcp.NewReceiver(engs[dr], dst, tcp.NewIDGen(uint64(2*k+2), uint64(2*nc)), tcp.ReceiverConfig{
			Conn:       connID,
			SrcHost:    dst.ID(),
			DstHost:    src.ID(),
			AckSize:    cfg.AckSize,
			DelayedAck: spec.DelayedAck,
			Pool:       pools[dr],
		})
		src.Attach(connID, s)
		dst.Attach(connID, r)
		senders[k], receivers[k] = s, r
		s.Obs = tracer
		s.ObsLoc = tracer.Loc(fmt.Sprintf("conn%d", connID))

		if connMeasured == nil || connMeasured[k] {
			// The window moves (and an ACK arrives) at most once per
			// delivered packet, so the per-connection share of one trunk
			// direction's packet budget is the cold estimate of both — not
			// a bound: the paper's two-way pair has a direction each, and
			// both logs outgrow estPkts/2 on every cold run.
			cw := trace.NewSeries(fmt.Sprintf("cwnd-%d", connID))
			cw.Points = logs.points.take(perConn)
			cw.Append(0, 1)
			res.Cwnd[k] = cw
			s.OnCwnd = func(v float64) { cw.Append(eng.Now(), v) }
			res.AckArrivals[k] = logs.times.take(perConn)
			ackGapHist := metrics.NewHistogram(fmt.Sprintf("ack-gap-seconds/conn%d", connID), ackGapBounds)
			lastAck := time.Duration(-1)
			s.OnAckArrival = func(*packet.Packet) {
				now := eng.Now()
				res.AckArrivals[k] = append(res.AckArrivals[k], now)
				if lastAck >= 0 {
					ackGapHist.Observe((now - lastAck).Seconds())
				}
				lastAck = now
			}
			rttSeries := trace.NewSeries(fmt.Sprintf("rtt-%d", connID))
			rttSeries.Points = logs.points.take(0)
			res.RTT[k] = rttSeries
			rttHist := metrics.NewHistogram(fmt.Sprintf("rtt-seconds/conn%d", connID), rttBounds)
			s.OnRTTSample = func(m time.Duration) {
				rttSeries.Append(eng.Now(), m.Seconds())
				rttHist.Observe(m.Seconds())
			}
			s.OnCollapse = func(cause string) {
				res.Collapses[k] = append(res.Collapses[k], CollapseEvent{eng.Now(), cause})
			}
		}

		start := spec.Start
		if start < 0 {
			start = time.Duration(rng.Int63n(int64(cfg.StartSpread)))
		}
		eng.ScheduleAt(start, s.Start)
	}

	// Mid-run link events. Each event's routing consequences are computed
	// here, at build time, on a private clone of the compiled topology:
	// ApplyLinkChange returns exactly the switches whose forwarding rows
	// move, and each one's new row is captured by reference — rows are
	// immutable, so later events on the clone cannot disturb it. At
	// simulation time the pre-scheduled callbacks just point the switch at
	// its new row (and, for bandwidth events, re-rate the trunk ports). One
	// callback is scheduled per changed switch and per re-rated port
	// direction, each on its own region's engine — so the total engine
	// event count is the same at every shard count — and scheduling
	// happens during build, so every callback's engine seq precedes every
	// same-time packet event in serial and sharded runs alike. That is
	// what keeps runs with events byte-identical at every shard count. A
	// down link only changes routing: packets already queued on, or in
	// flight over, the line still drain and deliver. Propagation delays
	// never change, so the sharded runner's MinCutDelay lookahead stays
	// valid.
	if len(cfg.Events) > 0 {
		work := topo.Clone()
		curBW := make(map[int]int64, len(cfg.Events))
		err := cfg.ReplayEvents(work, func(_ int, ev LinkEvent, _ time.Duration, changed []int) {
			li := ev.Link
			l := topo.Links[li]
			if _, ok := curBW[li]; !ok {
				curBW[li] = l.Bandwidth
			}
			if !ev.Down && ev.Bandwidth != curBW[li] {
				curBW[li] = ev.Bandwidth
				bw := ev.Bandwidth
				fwd, rev := trunks[li][0], trunks[li][1]
				engs[regionOf(l.A)].ScheduleAt(ev.T, func() { fwd.SetBandwidth(bw) })
				engs[regionOf(l.B)].ScheduleAt(ev.T, func() { rev.SetBandwidth(bw) })
			}
			for _, s := range changed {
				sw := switches[s]
				ends, slots := work.Row(s)
				engs[regionOf(s)].ScheduleAt(ev.T, func() { sw.SetRow(1, ends, slots) })
			}
		})
		if err != nil {
			return nil, err
		}
	}

	var runner *shard.Runner
	if K > 1 {
		regions := make([]*shard.Region, K)
		for r := 0; r < K; r++ {
			regions[r] = &shard.Region{Eng: engs[r], Pool: pools[r]}
		}
		runner = shard.NewRunner(regions, edges, edgeFrom, part.MinCutDelay)
	}

	// Nothing has been emitted yet, so a tracer can only have failed at
	// interning: the run has more locations than a trace can name.
	for _, tr := range tracers {
		if err := tr.Err(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	sm := &Sim{
		cfg:       cfg,
		eng:       eng,
		pool:      pool,
		engs:      engs,
		pools:     pools,
		runner:    runner,
		dropLogs:  dropLogs,
		res:       res,
		switches:  switches,
		trunks:    trunks,
		senders:   senders,
		receivers: receivers,
		sinks:     sinks,
		tracer:    tracer,
		tracers:   tracers,
		merger:    merger,
		checker:   checker,
		metrics:   metrics,
		progress:  progress,
		epochHist: metrics.NewHistogram("epoch-seconds", epochBounds),
	}
	res.Metrics = metrics
	if ar != nil {
		sm.logs = logs
	}
	if progress != nil {
		sm.nextProgressT = progress.Every
		sm.nextProgressE = progress.EveryEvents
	}
	return sm, nil
}

// Histogram bucket bounds for the built-in metrics. Chosen to bracket
// the paper's operating ranges: queues up to a few hundred packets,
// RTTs from milliseconds to the multi-second compressed regime, ACK
// gaps from sub-millisecond compression bursts to idle-period scale,
// and congestion epochs of seconds to minutes.
var (
	queueBounds  = []float64{0, 1, 2, 5, 10, 20, 40, 80, 160, 320}
	rttBounds    = []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30}
	ackGapBounds = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 5}
	epochBounds  = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}
)

// queueUnbounded names the unbounded-buffer sentinel for readability.
const queueUnbounded = 0

// estTrunkPackets estimates how many data packets one trunk direction
// can carry over the whole run — the sizing unit for trace containers.
func estTrunkPackets(cfg Config) int {
	tx := cfg.DataTxTime()
	if tx <= 0 || cfg.Duration <= 0 {
		return 0
	}
	return int(cfg.Duration / tx)
}

// clampReserve bounds a trace-capacity estimate so a pathological
// configuration (huge duration, tiny packets) cannot preallocate
// unbounded memory; beyond the clamp the containers just grow as before.
func clampReserve(n int) int {
	const maxReserve = 1 << 19
	if n > maxReserve {
		return maxReserve
	}
	if n < 0 {
		return 0
	}
	return n
}

// delayedNet adds a fixed delay in front of a host's output, modeling a
// longer private path for one connection (unequal RTTs, §5).
type delayedNet struct {
	eng *sim.Engine
	dst tcp.Network
	d   time.Duration
}

// Send implements tcp.Network. The delay element has unbounded storage,
// so acceptance is immediate; ordering is preserved because the delay is
// constant and the engine breaks timestamp ties in schedule order. The
// in-flight leg is a typed event bound to the element itself, so the
// per-packet path allocates nothing.
func (dn *delayedNet) Send(p *packet.Packet) bool {
	dn.eng.SchedulePacket(dn.d, dn, p)
	return true
}

// Deliver implements sim.PacketSink: the delay has elapsed, hand the
// packet to the host's output. A full buffer there drops (and releases)
// it like any other arrival.
func (dn *delayedNet) Deliver(p *packet.Packet) {
	dn.dst.Send(p)
}
