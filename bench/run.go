package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"
	"unsafe"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/scenario"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/trace"
	"tahoedyn/internal/tstore"
)

// variant is the one alternative configuration a workload's traced run
// compares against the default: mutate edits the parsed Config (the
// scheduler, the shard count, the obs tap), and metric names the ratio
// the comparison yields.
type variant struct {
	metric string
	mutate func(*core.Config, *runSpec)
	// ratio turns (default steady seconds, variant steady seconds) into
	// the reported value.
	ratio func(def, alt float64) float64
}

// phases is the host time one run spent in each phase of its life.
type phases struct {
	parse, build, warmup, steady, finish, post time.Duration
}

func (p phases) setup() time.Duration { return p.parse + p.build }
func (p phases) wall() time.Duration {
	return p.parse + p.build + p.warmup + p.steady + p.finish + p.post
}

// runOut is what one Build→Finish operation produced.
type runOut struct {
	phases
	steadyEvents uint64
	heapLive     int64 // built simulation at end of steady state, minus the pre-build baseline
	storeBytes   int
	outputBytes  int // what the run hands its user: series and logs, final counters, the store
	digest       digest
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// memBuffer is the in-memory target of the TOBC writer: an io.Writer
// while the run traces, an io.ReaderAt for the store queries after. It
// grows by fixed blocks, never by doubling and copying, so the memory a
// run holds and allocates follows the store's size smoothly instead of
// jumping when a seed's store happens to cross a power of two.
type memBuffer struct {
	blocks [][]byte
	size   int
}

const memBlock = 64 << 10

func (m *memBuffer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		off := m.size % memBlock
		if off == 0 {
			m.blocks = append(m.blocks, make([]byte, memBlock))
		}
		c := copy(m.blocks[len(m.blocks)-1][off:], p)
		p = p[c:]
		m.size += c
	}
	return n, nil
}

func (m *memBuffer) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) && off < int64(m.size) {
		b := m.blocks[off/memBlock]
		end := min(memBlock, m.size-int(off/memBlock)*memBlock)
		c := copy(p[n:], b[off%memBlock:end])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// built is a scenario taken from JSON to a runnable Sim: the set-up
// phase, with the time each half took.
type built struct {
	cfg          core.Config
	sim          *core.Sim
	store        *memBuffer
	writer       *tstore.Writer
	parse, build time.Duration
}

// clock times fn and records it as a span of the traced run.
func clock(tr *tracer, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.span(name, t0, t1)
	return t1.Sub(t0)
}

// setUp is the set-up phase of one operation: scenario.Parse, the
// harness-side switches, core.BuildE. The traced run's probes sit
// between the two timed calls, off the clock.
func setUp(ar *core.Arena, spec runSpec, tr *tracer, alt *variant) (built, error) {
	var b built
	var err error
	b.parse = clock(tr, "scenario.parse_s", func() {
		b.cfg, err = scenario.Parse(bytes.NewReader(spec.json))
	})
	if err != nil {
		return b, fmt.Errorf("parse: %w", err)
	}
	if spec.gate {
		b.cfg.MeasureTrunks, b.cfg.MeasureConns = []int{}, []int{}
	}
	if alt != nil {
		alt.mutate(&b.cfg, &spec)
	}
	if spec.store {
		b.store = &memBuffer{}
		b.writer = tstore.NewWriter(b.store, tstore.WriterOptions{})
		b.cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: b.writer}}
		b.cfg.Invariants = &tstore.CheckOptions{}
	}
	tr.setupProbes(&b.cfg, len(spec.json))

	m0 := tr.memStats()
	b.build = clock(tr, "core.build_s", func() { b.sim, err = ar.BuildE(b.cfg) })
	if err != nil {
		return b, fmt.Errorf("build: %w", err)
	}
	tr.wiring(m0, &b.cfg)
	return b, nil
}

// runOne executes one operation: scenario JSON → Parse → BuildE →
// RunUntil(Warmup) → RunUntil(Duration) → Finish → the spec's analysis
// or store queries. Each phase is timed on its own; the heap probes and
// the traced run's extra probes sit between phases, off the clock. tr,
// when non-nil, records spans and attribution; alt, when non-nil,
// applies a variant's mutation.
func runOne(ar *core.Arena, spec runSpec, tr *tracer, alt *variant) (runOut, error) {
	var out runOut
	base := liveHeap() // also the off-the-clock GC before each run
	b, err := setUp(ar, spec, tr, alt)
	if err != nil {
		return out, err
	}
	out.parse, out.build = b.parse, b.build
	s, cfg := b.sim, b.cfg

	out.warmup = clock(tr, "core.warmup_s", func() { s.RunUntil(cfg.Warmup) })
	e0 := s.Events()
	m0 := tr.memStats()
	out.steady = clock(tr, "core.steady_s", func() { tr.steadySpan(func() { s.RunUntil(cfg.Duration) }) })
	out.steadyEvents = s.Events() - e0
	tr.steady(m0, s, out.steadyEvents)
	out.heapLive = liveHeap() - base

	var res *core.Result
	out.finish = clock(tr, "core.finish_s", func() { res = s.Finish() })
	if res.TraceErr != nil {
		return out, fmt.Errorf("trace sink: %w", res.TraceErr)
	}
	if res.Invariant != nil {
		return out, fmt.Errorf("invariant: %w", res.Invariant)
	}
	if err := conservation(res, spec); err != nil {
		return out, err
	}
	out.digest = digestOf(res)
	series := seriesBytes(res)
	out.outputBytes = series + len(res.TrunkUtil)*int(unsafe.Sizeof([2]float64{})) +
		len(res.SenderStats)*int(unsafe.Sizeof(res.SenderStats[0])+unsafe.Sizeof(res.ReceiverStats[0])+2*unsafe.Sizeof(int(0)))
	var tapped uint64
	if b.writer != nil {
		tapped = b.writer.TotalEvents()
	}
	tr.account(res, series, out.steadyEvents, tapped)

	t0 := time.Now()
	if spec.analyse {
		sweepAnalysis(res, tr, &out.digest)
	}
	if b.store != nil {
		out.storeBytes = b.store.size
		out.outputBytes += b.store.size
		if err := storeQueries(b.store, b.writer.TotalEvents(), tr, &out.digest); err != nil {
			return out, err
		}
	}
	out.post = time.Since(t0)
	return out, nil
}

// seriesBytes is the size of the series and logs a Result holds: queue
// lengths, departures, windows, RTTs, ACK arrivals, collapses, drops.
func seriesBytes(res *core.Result) int {
	const point = int(unsafe.Sizeof(trace.Point{}))
	n := 0
	for _, q := range res.TrunkQueue {
		for _, s := range q {
			if s != nil {
				n += len(s.Points) * point
			}
		}
	}
	for _, d := range res.TrunkDeps {
		n += (len(d[0]) + len(d[1])) * int(unsafe.Sizeof(trace.Departure{}))
	}
	for _, group := range [][]*trace.Series{res.Cwnd, res.RTT} {
		for _, s := range group {
			if s != nil {
				n += len(s.Points) * point
			}
		}
	}
	for _, a := range res.AckArrivals {
		n += len(a) * int(unsafe.Sizeof(time.Duration(0)))
	}
	for _, c := range res.Collapses {
		n += len(c) * int(unsafe.Sizeof(core.CollapseEvent{}))
	}
	return n + len(res.Drops)*int(unsafe.Sizeof(trace.DropEvent{}))
}

// sweepAnalysis is what tahoe-sweep computes per grid point (window and
// queue phase classification, utilisation) plus the epoch and
// ACK-compression passes the paper's figures rest on. Its verdicts are
// simulated statistics, so they join the digest.
func sweepAnalysis(res *core.Result, tr *tracer, d *digest) {
	cfg := &res.Cfg
	t0 := time.Now()
	wMode, wr := analysis.Phase(res.Cwnd[0], res.Cwnd[1], cfg.Warmup, cfg.Duration, time.Second)
	qMode, qr := analysis.Phase(res.Q1(), res.Q2(), cfg.Warmup, cfg.Duration, time.Second)
	t1 := time.Now()
	tr.span("analysis.phase_s", t0, t1)
	var measured []trace.DropEvent
	for _, dr := range res.Drops {
		if dr.T >= res.MeasureFrom {
			measured = append(measured, dr)
		}
	}
	epochs := analysis.Epochs(measured, 2*time.Second)
	t2 := time.Now()
	tr.span("analysis.epochs_s", t1, t2)
	comp := analysis.AckCompression(res.AckArrivals[0], cfg.DataTxTime(), res.MeasureFrom)
	tr.span("analysis.ackcomp_s", t2, time.Now())
	d.Analysis = fmt.Sprintf("w=%v/%.6f q=%v/%.6f epochs=%d comp=%.6f util=%.6f",
		wMode, wr, qMode, qr, len(epochs), comp.CompressedFraction(), res.UtilForward())
}

// storeQueries opens the in-memory TOBC store and runs the offline
// checker plus one query of each kind tahoe-query offers.
func storeQueries(store *memBuffer, written uint64, tr *tracer, d *digest) error {
	t0 := time.Now()
	st, err := tstore.NewStore(store, int64(store.size))
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	t1 := time.Now()
	tr.span("tstore.open_s", t0, t1)
	checked, viol, err := tstore.Check(st, tstore.CheckOptions{})
	if err != nil {
		return fmt.Errorf("check store: %w", err)
	}
	if viol != nil {
		return fmt.Errorf("check store: %w", viol)
	}
	t2 := time.Now()
	tr.span("tstore.check_s", t1, t2)
	drops, err := st.Count(tstore.Query{Filter: obs.Filter{Types: 1 << obs.Drop}})
	if err != nil {
		return fmt.Errorf("count: %w", err)
	}
	wins, err := tstore.Windowed(st, tstore.Query{Filter: obs.Filter{Types: 1 << obs.Transmit}},
		tstore.WindowOptions{Width: 100 * time.Second, ByLoc: true})
	if err != nil {
		return fmt.Errorf("windowed: %w", err)
	}
	qs, n, err := tstore.Quantiles(st, tstore.Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}, []float64{0.5, 0.9, 0.99})
	if err != nil {
		return fmt.Errorf("quantiles: %w", err)
	}
	tr.span("tstore.query_s", t2, time.Now())
	if checked != written || st.TotalEvents() != written {
		return fmt.Errorf("store holds %d events, checker saw %d, writer wrote %d", st.TotalEvents(), checked, written)
	}
	d.Store = fmt.Sprintf("events=%d drops=%d locs=%d enq=%d q=%v", written, drops, len(wins), n, qs)
	return nil
}

// heapSched pins the 4-ary heap; the default is the timing wheel.
func heapSched(cfg *core.Config, _ *runSpec) { cfg.Sched = sim.SchedHeap }
