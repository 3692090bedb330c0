package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"tahoedyn/internal/core"
)

const mb = 1 << 20

// repOut is one repetition: every run of the workload, once, on one
// fresh Arena. Times are sums over the runs, in seconds.
type repOut struct {
	setup, steady, wall float64
	events              uint64
	allocMB, heapLiveMB float64
	storeMB, outputMB   float64
	digests             []digest
}

func (r repOut) metric(name string) float64 {
	switch name {
	case "setup_s":
		return r.setup
	case "steady_events_per_s":
		return float64(r.events) / r.steady
	case "wall_s":
		return r.wall
	case "alloc_mb":
		return r.allocMB
	case "heap_live_mb":
		return r.heapLiveMB
	case "output_mb":
		return r.outputMB
	}
	panic("unknown end-to-end metric " + name)
}

// ledger counts operations — one Build→Finish run each — and keeps the
// reference digests they are checked against: the committed goldens of
// (workload, seed) when there are some, else the first repetition's.
type ledger struct {
	attempted, failed int
	// variantDiffers counts variant runs whose digest is not the
	// default configuration's. The run itself succeeded, so it is not a
	// failed operation; the traced run reports it.
	variantDiffers int
	ref            []digest
	errw           io.Writer
	workload       string
}

func (l *ledger) fail(run runSpec, err error) {
	l.failed++
	fmt.Fprintf(l.errw, "bench: %s %s: FAILED: %v\n", l.workload, run.label, err)
}

// check compares run i's digest with the reference, adopting it when
// there is none yet. A variant run is compared without the store
// verdict (one variant runs with the tap off).
func (l *ledger) check(i int, run runSpec, d digest, variant bool) {
	for len(l.ref) <= i {
		l.ref = append(l.ref, digest{})
	}
	if l.ref[i] == (digest{}) {
		l.ref[i] = d
		return
	}
	want := l.ref[i]
	if variant {
		want.Store, d.Store = "", ""
	}
	switch {
	case d == want:
	case variant:
		l.variantDiffers++
		fmt.Fprintf(l.errw, "bench: %s %s: variant digest differs from the default's:\n  got  %+v\n  want %+v\n", l.workload, run.label, d, want)
	default:
		l.fail(run, fmt.Errorf("digest differs from reference:\n  got  %+v\n  want %+v", d, want))
	}
}

// repetition runs every run of the workload once. A failed operation is
// counted and reported; the repetition carries on so one bad run does
// not hide the others.
func repetition(runs []runSpec, l *ledger, tr *tracer, alt *variant) repOut {
	var out repOut
	ar := core.NewArena()
	done := tr.open("rep")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, run := range runs {
		if tr != nil {
			tr.run = i
		}
		doneRun := tr.open("run " + run.label)
		l.attempted++
		o, err := runOne(ar, run, tr, alt)
		doneRun()
		if err != nil {
			l.fail(run, err)
			continue
		}
		l.check(i, run, o.digest, alt != nil)
		out.setup += o.setup().Seconds()
		out.steady += o.steady.Seconds()
		out.wall += o.wall().Seconds()
		out.events += o.steadyEvents
		out.heapLiveMB = max(out.heapLiveMB, float64(o.heapLive)/mb)
		out.storeMB += float64(o.storeBytes) / mb
		out.outputMB += float64(o.outputBytes) / mb
		out.digests = append(out.digests, o.digest)
	}
	runtime.ReadMemStats(&m1)
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	done()
	return out
}

// summary is the median and quartiles of one metric's samples; the
// quartiles are Python's statistics.quantiles(values, n=4). Value is the
// figure the benchmark reports: the better quartile — q1 where lower is
// better, q3 where higher is. Whatever else runs on a shared host only
// ever slows a repetition, and it does so in stretches that can cover
// more than half of a run, so the median of a run's repetitions jumps
// between a quiet and a disturbed level from one run to the next while
// the better quartile stays on the quiet one (README.md has the
// rehearsal). Sizes repeat to five digits: their quartiles are their median.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(vals []float64, better string) summary {
	s := quartiles(vals)
	s.Value = s.Q1
	if better == "higher" {
		s.Value = s.Q3
	}
	return s
}

func quartiles(vals []float64) summary {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	s := summary{N: n}
	if n == 0 {
		return s
	}
	if n == 1 {
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	return s
}

// report is one workload's outcome: end-to-end summaries from the
// untraced repetitions, or per-layer values from the traced run.
type report struct {
	workload          string
	attempted, failed int
	endToEnd          map[string]summary
	perLayer          map[string]float64
	notes             []string
}

// plan says how much to measure: a fixed repetition count, or, when the
// driver passes -seconds, as many whole repetitions as fit, at least
// minReps. One warm-up repetition is always run first and discarded.
type plan struct {
	seed    int64
	scale   float64
	reps    int
	seconds float64
	// cold skips the warm-up repetition; only the smoke run does.
	cold bool
}

const minReps = 3

// newLedger loads the reference digests of (workload, seed). The smoke
// scale has no goldens: its repetitions are checked against each other.
func newLedger(w *workload, p plan, errw io.Writer) (*ledger, error) {
	l := &ledger{errw: errw, workload: w.name}
	if p.scale == 1 {
		ref, err := loadGolden(w.name, p.seed)
		if err != nil {
			return nil, err
		}
		l.ref = ref
	}
	return l, nil
}

// measure runs a workload untraced: one discarded warm-up repetition,
// then the timed ones.
func measure(w *workload, p plan, errw io.Writer) (report, error) {
	l, err := newLedger(w, p, errw)
	if err != nil {
		return report{}, err
	}
	runs := w.gen(p.seed, p.scale)
	if !p.cold {
		// Warm-up: first-touch page faults, heap growth, cold code.
		r := repetition(runs, l, nil, nil)
		fmt.Fprintf(errw, "bench: %s warm-up (discarded): setup_s=%.6g wall_s=%.6g\n", w.name, r.setup, r.wall)
	}
	samples := map[string][]float64{}
	start := time.Now()
	var last time.Duration // the previous repetition, off-the-clock probes included
	for n := 0; ; n++ {
		if p.seconds > 0 {
			// Stop before a repetition that would end past the deadline.
			if n >= minReps && (time.Since(start)+last).Seconds() > p.seconds {
				break
			}
		} else if n >= p.reps {
			break
		}
		t0 := time.Now()
		r := repetition(runs, l, nil, nil)
		last = time.Since(t0)
		if len(r.digests) == 0 {
			break // every run failed; the ledger has the reasons
		}
		fmt.Fprintf(errw, "bench: %s rep %d:", w.name, n+1)
		for _, m := range endToEnd {
			samples[m.name] = append(samples[m.name], r.metric(m.name))
			fmt.Fprintf(errw, " %s=%.6g", m.name, r.metric(m.name))
		}
		fmt.Fprintln(errw)
		if r.storeMB > 0 {
			samples["store_mb"] = append(samples["store_mb"], r.storeMB)
		}
	}
	rep := report{workload: w.name, attempted: l.attempted, failed: l.failed, endToEnd: map[string]summary{}}
	for _, m := range endToEnd {
		rep.endToEnd[m.name] = summarize(samples[m.name], m.better)
	}
	if v := samples["store_mb"]; len(v) > 0 {
		rep.endToEnd["store_mb"] = summarize(v, "lower")
	}
	return rep, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark so
// each workload of a suite run reports its own peak; a single-workload
// run has no need of it. Best effort: where clear_refs is not writable
// the mark stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// traced runs a workload's traced pass: a warm-up and an untraced
// repetition for the overhead baseline, the traced repetition (spans,
// set-up probes, steady-state CPU profile), and the variant repetition
// when the workload has one. iso holds the isolated drivers' figures.
func traced(w *workload, p plan, iso map[string]float64, errw io.Writer) (report, []span, error) {
	l, err := newLedger(w, p, errw)
	if err != nil {
		return report{}, nil, err
	}
	runs := w.gen(p.seed, p.scale)
	if !p.cold {
		repetition(runs, l, nil, nil)
	}
	plain := repetition(runs, l, nil, nil)
	tr := newTracer(w.name)
	if err := pprof.StartCPUProfile(&tr.prof); err != nil {
		return report{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	with := repetition(runs, l, tr, nil)
	pprof.StopCPUProfile()

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range iso {
		m[k] = v
	}
	s := tr.sums
	for _, d := range perLayer {
		if v, ok := s[d.name]; ok {
			m[d.name] = v
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["core.wire_s"] = max(s["core.build_s"]-s["topology.compile_s"], 0)
	wireAllocs := max(s["core.build_allocs"]-s["topology.compile_allocs"], 0)
	wireBytes := max(s["core.build_bytes"]-s["topology.compile_bytes"], 0)
	m["core.wire_allocs_per_conn"] = div(wireAllocs, s["core.conns"])
	m["core.wire_bytes_per_conn"] = div(wireBytes, s["core.conns"])
	m["core.wire_allocs_per_switch"] = div(wireAllocs, s["topology.switches"])
	m["topology.compile_us_per_switch"] = div(s["topology.compile_s"]*1e6, s["topology.switches"])
	m["topology.route_bytes_per_switch"] = div(s["topology.route_bytes"], s["topology.switches"])
	m["topology.apply_link_change_us"] = div(s["topology.apply_link_change_s"]*1e6, s["topology.apply_link_changes"])
	m["scenario.parse_mb_per_s"] = div(s["scenario.json_bytes"]/1e6, s["scenario.parse_s"])
	m["trace.series_bytes_per_sim_s"] = div(s["trace.series_bytes"], s["trace.sim_s"])
	m["tstore.store_mb"] = with.storeMB
	m["bench.trace_overhead_pct"] = 100 * div(with.wall-plain.wall, plain.wall)
	m["core.steady_ns_per_event"] = div(s["core.steady_s"]*1e9, s["core.steady_events"])
	m["core.steady_allocs_per_kevent"] = div(s["core.steady_allocs"]*1000, s["core.steady_events"])
	m["packet.pool_miss_per_kevent"] = div(s["packet.pool_misses"]*1000, s["core.steady_events"])
	m["proc.peak_rss_mb"] = peakRSSMB()

	rep := report{workload: w.name, perLayer: m, endToEnd: map[string]summary{}}
	for _, d := range endToEnd {
		rep.endToEnd[d.name] = summarize([]float64{plain.metric(d.name)}, d.better)
	}
	shares, weight, err := steadyShares(tr.prof.Bytes())
	if err != nil {
		return rep, nil, err
	}
	for b, v := range shares {
		m[shareMetric(b)] = v
	}
	if weight == 0 {
		rep.notes = append(rep.notes, "steady span too short for a CPU sample; shares read other=100")
	}

	// The budget: isolated cost × operation count, over the steady span.
	// Port, host-deliver and endpoint drivers already contain the engine
	// events they schedule (2 per port hop, 1 per host delivery); only
	// the events beyond those are charged at the scheduler's own rate.
	o, b := tr.ops, w.budget
	explained := o.portHops*m[b.port] + o.forwards*m[b.forward] + o.hostDelivers*m["node.host_deliver_ns"] +
		o.senderAcks*m["tcp.sender_ack_ns"] + o.receiverData*m["tcp.receiver_data_ns"] +
		max(o.events-2*o.portHops-o.hostDelivers, 0)*m[b.sched]
	if b.tapped {
		explained += o.traced * (m["obs.emit_on_ns"] + m["tstore.append_ns_per_event"])
	}
	m["core.budget_coverage_pct"] = 100 * div(explained, s["core.steady_s"]*1e9)
	if c := m["core.budget_coverage_pct"]; c < 60 || c > 140 {
		rep.notes = append(rep.notes, fmt.Sprintf("core.budget_coverage_pct = %.0f%% is outside 60–140%%: the isolated drivers leave this workload's steady state unattributed", c))
	}

	if v := w.variant; v != nil {
		alt := repetition(runs, l, nil, v)
		m[v.metric] = v.ratio(plain.steady, alt.steady)
		if v.metric == "shard.speedup_x" && l.variantDiffers == 0 {
			m["shard.digest_equal"] = 1
		}
		if l.variantDiffers > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("%s: %d run(s) of the variant configuration produced different simulated statistics than the default", v.metric, l.variantDiffers))
		}
	}
	rep.attempted, rep.failed = l.attempted, l.failed
	return rep, tr.spans, nil
}
