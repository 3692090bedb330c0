// Package experiment reproduces, one by one, every figure and
// quantitative claim in the paper's evaluation. Each experiment builds
// the corresponding configuration, runs it, computes the paper's
// observables, and reports them as paper-value vs measured-value metrics
// with a pass/fail judgment against a qualitative band.
//
// The bands are deliberately bands, not exact values: the original study
// ran the authors' private simulator with unknown timer phases and start
// times, so the reproduction targets the paper's *shape* — who wins, what
// oscillates, which mode locks in — not bit-identical traces.
package experiment

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/runner"
	"tahoedyn/internal/trace"
	"tahoedyn/internal/tstore"
)

// Options tunes an experiment run. The zero value is a fully usable
// default — every field has a documented zero-value meaning, so call
// sites never need to spell out knobs they don't care about.
type Options struct {
	// Seed selects the scenario randomness; 0 means 1.
	Seed int64
	// Scale multiplies the default run durations. 0 means 1.0; benches
	// use fractions to keep iterations fast. Validate refuses a Scale
	// that is NaN, infinite or negative, or that takes a duration an
	// experiment scales out of (0, MaxInt64] ns.
	Scale float64
	// Parallel bounds the worker count for an experiment's batch of
	// independent simulations (every experiment hands all its runs to
	// one batch) and for RunAll. 0 means serial (the historical
	// behavior), negative means GOMAXPROCS. Results are deterministic
	// for any value: runs are independent and collected in job order.
	Parallel int
	// Observer, when non-nil, receives progress samples from every
	// simulation an experiment runs (tahoe-sim -progress wires this to
	// stderr). Observation is passive: results are byte-identical with
	// or without it. The callback must be safe for concurrent use when
	// Parallel enables more than one worker.
	Observer *obs.Progress
	// Invariants runs the streaming invariant engine (internal/tstore)
	// online over every simulation the experiment performs: packet
	// conservation at each port, event-time monotonicity, cwnd bounds,
	// timeout monotonicity. Checking is passive — results stay
	// byte-identical — but a violation fails the experiment: an
	// experiment whose trace breaks conservation is reporting garbage,
	// so its Outcome gains a failed check named after the rule, measured
	// as the offending event.
	Invariants bool

	// found collects the checker's violations across one experiment's
	// runs; the registry's wrapper (checked) sets it under Invariants.
	found *violations
}

// violations is what the invariant checker found across the runs of
// one experiment, which may run concurrently.
type violations struct {
	mu      sync.Mutex
	metrics []Metric
}

// add records v as a failed check.
func (vs *violations) add(v *tstore.Violation) {
	m := metric("invariant "+v.Rule, "clean", false, "event %d (t=%v %v at %s): %s",
		v.Index, v.Event.T, v.Event.Type, v.Loc, v.Detail)
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.metrics = append(vs.metrics, m)
}

// checked wraps the registry entry d's experiment so that its Outcome
// carries d's Name and Title and, under Options.Invariants, every
// violation its runs report becomes a failed check, in an order that
// does not depend on which run finished first.
func checked(d Definition) func(Options) *Outcome {
	return func(o Options) *Outcome {
		if o.Invariants {
			o.found = &violations{}
		}
		out := d.Run(o)
		out.ID, out.Title = d.Name, d.Title
		if o.found != nil {
			found := o.found.metrics
			slices.SortFunc(found, func(a, b Metric) int {
				return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Measured, b.Measured))
			})
			out.Metrics = append(out.Metrics, found...)
		}
		return out
	}
}

// workers translates Options.Parallel into a runner worker count.
func (o Options) workers() int {
	switch {
	case o.Parallel < 0:
		return runner.DefaultWorkers()
	case o.Parallel == 0:
		return 1
	default:
		return o.Parallel
	}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) scale(d time.Duration) time.Duration {
	if onScale != nil {
		onScale(d)
	}
	if o.Scale <= 0 {
		return d
	}
	return time.Duration(float64(d) * o.Scale)
}

// shortestScaled and longestScaled bound the positive durations the
// experiments scale (TestScaledDurationsBounded keeps them true), so a
// Scale that keeps both within (0, MaxInt64] ns keeps every one there.
const (
	shortestScaled = 250 * time.Millisecond
	longestScaled  = 3300 * time.Second
)

// onScale, when set, sees every duration scale is given.
var onScale func(time.Duration)

// Validate reports a Scale no experiment can run at: NaN, infinite or
// negative, or one that scales a duration an experiment uses to 0 ns or
// past MaxInt64 ns.
func (o Options) Validate() error {
	s := o.Scale
	switch {
	case math.IsNaN(s) || math.IsInf(s, 0) || s < 0:
		return fmt.Errorf("experiment: Scale %v is not a finite, non-negative number", s)
	case s == 0: // 1.0
		return nil
	case float64(shortestScaled)*s < 1:
		return fmt.Errorf("experiment: Scale %v shortens %v to 0 ns", s, shortestScaled)
	case float64(longestScaled)*s >= math.MaxInt64: // 2⁶³ as a float64: one past the largest
		return fmt.Errorf("experiment: Scale %v lengthens %v past %v", s, longestScaled, time.Duration(math.MaxInt64))
	}
	return nil
}

// Metric is one paper-vs-measured comparison.
type Metric struct {
	// Name describes the observable.
	Name string
	// Paper is the value (or qualitative claim) the paper reports.
	Paper string
	// Measured is what this run produced.
	Measured string
	// Pass reports whether Measured falls in the acceptance band.
	Pass bool
}

// Outcome is the result of one experiment.
type Outcome struct {
	// ID and Title are the registry entry's Name and Title (e.g.
	// "fig4-5"), stamped by All()'s wrapper: an experiment function
	// called directly leaves them empty.
	ID, Title string
	// Metrics lists the paper-vs-measured comparisons.
	Metrics []Metric
	// Series holds the headline traces for plotting, and PlotFrom/PlotTo
	// a window that shows a few cycles, like the paper's figures.
	Series           []*trace.Series
	PlotFrom, PlotTo time.Duration
	// Result is the underlying run (the first one, for multi-run
	// experiments). May be nil for pure sweep experiments.
	Result *core.Result
	// Notes carries free-form commentary about the run.
	Notes []string
}

// Passed reports whether every metric is in its acceptance band.
func (o *Outcome) Passed() bool {
	for _, m := range o.Metrics {
		if !m.Pass {
			return false
		}
	}
	return true
}

// WriteText renders the outcome as an aligned text report.
func (o *Outcome) WriteText(w io.Writer) error {
	status := "PASS"
	if !o.Passed() {
		status = "FAIL"
	}
	if _, err := fmt.Fprintf(w, "%s — %s [%s]\n", o.ID, o.Title, status); err != nil {
		return err
	}
	for _, m := range o.Metrics {
		mark := "ok "
		if !m.Pass {
			mark = "BAD"
		}
		if _, err := fmt.Fprintf(w, "  %s %-38s paper: %-28s measured: %s\n",
			mark, m.Name, m.Paper, m.Measured); err != nil {
			return err
		}
	}
	for _, n := range o.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// metric builds a Metric with a formatted measurement.
func metric(name, paper string, pass bool, format string, args ...any) Metric {
	return Metric{Name: name, Paper: paper, Measured: fmt.Sprintf(format, args...), Pass: pass}
}

// inBand reports lo <= v <= hi.
func inBand(v, lo, hi float64) bool { return v >= lo && v <= hi }

// Definition is a registry entry.
type Definition struct {
	// Name is the CLI-facing identifier; Title a one-line description.
	// Both are set here only: the Outcome's ID and Title copy them.
	Name, Title string
	// Run executes the experiment.
	Run func(Options) *Outcome
}

// All returns every experiment in presentation order (the paper's own
// order: one-way review, the [19] configuration, two-way dynamics,
// fixed-window systems, then the §5 discussion points and ablations).
func All() []Definition {
	defs := []Definition{
		{"fig2-oneway", "One-way traffic, 3 connections, τ=1s, B=20 (Fig. 2)", Fig2OneWay},
		{"increase-rule", "Modified vs original congestion-avoidance increase (§2.1)", IncreaseRuleStudy},
		{"oneway-smallpipe", "One-way traffic, 3 connections, τ=0.01s, B=20 (§3.1)", OneWaySmallPipe},
		{"oneway-buffers", "One-way idle time vs buffer size (§3.1)", OneWayBufferSweep},
		{"fig3-tenconns", "Ten connections, 5 each way, τ=0.01s, B=30 (Fig. 3)", Fig3TenConns},
		{"fig4-5", "Two-way traffic, τ=0.01s, B=20: out-of-phase mode (Figs. 4, 5)", Fig45TwoWaySmallPipe},
		{"fig6-7", "Two-way traffic, τ=1s, B=20: in-phase mode (Figs. 6, 7)", Fig67TwoWayLargePipe},
		{"fig8-fixed", "Fixed windows 30/25, τ=0.01s, infinite buffers (Fig. 8)", Fig8FixedWindowSmallPipe},
		{"fig9-fixed", "Fixed windows 30/25, τ=1s, infinite buffers (Fig. 9)", Fig9FixedWindowLargePipe},
		{"zeroack-conjecture", "Zero-length-ACK synchronization conjecture (§4.3.3)", ZeroACKConjecture},
		{"mode-boundary", "Synchronization-mode boundary vs buffer and pipe (§4.3.3)", ModeBoundaryStudy},
		{"ack-compression", "ACK-compression mechanism probe (§4.2)", ACKCompressionProbe},
		{"delayed-ack", "Delayed-ACK option vs clustering and compression (§5)", DelayedACKStudy},
		{"four-switch", "Four-switch topology with 50 mixed-path connections (§5, [19])", FourSwitchTopology},
		{"unequal-rtt", "Unequal round-trip times break complete clustering (§5)", UnequalRTTStudy},
		{"pacing-ablation", "Paced sender ablation: pacing defeats ACK-compression", PacingAblation},
		{"parking-lot", "Parking-lot fairness: 3 bottlenecks, 1 long vs 3 cross connections", ParkingLotFairness},
		{"congestion-wave", "Congestion wave: pulse propagation down a 4-bottleneck chain", CongestionWaveProbe},
		{"wave-speed", "Wave speed: wavefront velocity fit over an 8-bottleneck chain", WaveSpeedStudy},
		{"mesh-wave", "Mesh wave: velocity fit over the diameter of a scale-free tree", MeshWaveStudy},
		{"reno", "Reno fast recovery: the phenomena outlive Tahoe (extension)", RenoTwoWay},
		{"random-drop", "Random Drop gateways vs drop-tail (extension, §1 citations)", RandomDropStudy},
		{"fair-queueing", "Fair Queueing gateways cure ACK-compression (extension, §1 citations)", FairQueueStudy},
		{"red-sync", "RED gateways vs drop-tail: phase-lock breakdown (extension)", RedSyncStudy},
		{"cross-traffic", "Two-way dynamics under unresponsive CBR cross-traffic (extension)", CrossTrafficStudy},
	}
	for i := range defs {
		defs[i].Run = checked(defs[i])
	}
	return defs
}

// RunAll executes every registered experiment with the given options and
// returns the outcomes in registry order. Experiments are fanned across
// opts.Parallel workers; the returned slice is identical for any worker
// count because each experiment is deterministic in Options and results
// are collected by registry index.
func RunAll(opts Options) []*Outcome {
	defs := All()
	return runner.Map(opts.workers(), len(defs), func(i int) *Outcome {
		return defs[i].Run(opts)
	})
}

// Find returns the experiment with the given name.
func Find(name string) (Definition, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Definition{}, false
}
