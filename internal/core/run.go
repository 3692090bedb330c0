package core

import (
	"context"
	"fmt"
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
	engs   []*sim.Engine
	pools  []*packet.Pool
	runner *shard.Runner
	// ar is the arena the run was built on (a throw-away one without);
	// logs are the run's chunk logs, which finish settles into the Result,
	// and logPools the regions' pools they append from.
	ar       *Arena
	logs     runLogs
	logPools []*logPools

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
		logBytes := 0
		for _, lp := range s.logPools {
			logBytes += lp.held
		}
		p.Fn(obs.Snapshot{Now: now, End: s.cfg.Duration, Events: events, LogBytes: int64(logBytes)})
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
	// Here the Result becomes visible: it must own all it references.
	s.logs.settle()
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
// The logs never escape: their chunks are concatenated, in region order,
// in a scratch the arena keeps, and sorted there.
func (s *Sim) mergeDrops() {
	recs := s.ar.merge[:0]
	for _, l := range s.logs.drops {
		l.each(func(d []dropRec) { recs = append(recs, d...) })
	}
	s.ar.merge = recs
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
	for i, l := range res.Topo.Links {
		ends := [2]int{l.A, l.B}
		for dir, at := range ends {
			name := trunkName(at, ends[1-dir])
			m.NewGauge("util/" + name).Set(res.TrunkUtil[i][dir])
			if q := res.TrunkQueue[i][dir]; q != nil { // nil when the trunk is unmeasured
				m.NewGauge("queue-mean/" + name).Set(
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
