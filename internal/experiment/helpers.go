package experiment

import (
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/runner"
	"tahoedyn/internal/trace"
	"tahoedyn/internal/tstore"
)

// dumbbell is the paper's Figure-1 dumbbell at o's seed, measured over
// the 200 s warm-up / 800 s span most experiments use (scaled by o);
// callers add the connections.
func dumbbell(o Options, tau time.Duration, buffer int) core.Config {
	cfg := core.DumbbellConfig(tau, buffer)
	cfg.Seed = o.seed()
	cfg.Warmup = o.scale(200 * time.Second)
	cfg.Duration = o.scale(800 * time.Second)
	return cfg
}

// twoWayConfig is the canonical 1+1 two-way dumbbell of §4.
func twoWayConfig(o Options, tau time.Duration, buffer int) core.Config {
	cfg := dumbbell(o, tau, buffer)
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	return cfg
}

// oneWayConfig is the §3.1 configuration: n connections, all sources on
// host 1.
func oneWayConfig(o Options, tau time.Duration, buffer, n int) core.Config {
	cfg := dumbbell(o, tau, buffer)
	for i := 0; i < n; i++ {
		cfg.Conns = append(cfg.Conns, core.ConnSpec{SrcHost: 0, DstHost: 1, Start: -1})
	}
	return cfg
}

// fixedWindowConfig builds the §4.1 disentangling configuration: two
// connections with constant windows w1 (host 0 → 1) and w2 (host 1 → 0)
// and infinite switch buffers.
func fixedWindowConfig(o Options, tau time.Duration, w1, w2 int) core.Config {
	cfg := dumbbell(o, tau, 0 /* infinite buffers */)
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, FixedWnd: w1, Start: -1},
		{SrcHost: 1, DstHost: 0, FixedWnd: w2, Start: -1},
	}
	return cfg
}

// dropsAfter filters drop events to the measurement window.
func dropsAfter(drops []trace.DropEvent, from time.Duration) []trace.DropEvent {
	var out []trace.DropEvent
	for _, d := range drops {
		if d.T >= from {
			out = append(out, d)
		}
	}
	return out
}

// measuredEpochs groups the run's post-warmup drops into congestion
// epochs with the given gap.
func measuredEpochs(res *core.Result, gap time.Duration) []analysis.Epoch {
	return analysis.Epochs(dropsAfter(res.Drops, res.MeasureFrom), gap)
}

// dataClustering computes the clustering of data departures on the given
// trunk direction over the measurement window.
func dataClustering(res *core.Result, trunk, dir int) float64 {
	return analysis.Clustering(analysis.FilterDepartures(
		analysis.DeparturesFrom(res.TrunkDeps[trunk][dir], res.MeasureFrom), packet.Data))
}

// compression computes ACK-compression statistics at connection k's
// sender.
func compression(res *core.Result, k int) analysis.CompressionStats {
	return analysis.AckCompression(res.AckArrivals[k], res.Cfg.DataTxTime(), res.MeasureFrom)
}

// ackDropCount counts dropped ACK packets in the measurement window.
func ackDropCount(res *core.Result) int {
	n := 0
	for _, d := range dropsAfter(res.Drops, res.MeasureFrom) {
		if d.Kind == packet.Ack {
			n++
		}
	}
	return n
}

// meanDropsPerEpoch is the average number of drops per congestion epoch.
func meanDropsPerEpoch(epochs []analysis.Epoch) float64 {
	if len(epochs) == 0 {
		return 0
	}
	total := 0
	for _, e := range epochs {
		total += len(e.Drops)
	}
	return float64(total) / float64(len(epochs))
}

// meanEpochPeriod is the mean spacing of congestion epoch starts.
func meanEpochPeriod(epochs []analysis.Epoch) time.Duration {
	if len(epochs) < 2 {
		return 0
	}
	return (epochs[len(epochs)-1].Start - epochs[0].Start) / time.Duration(len(epochs)-1)
}

// queuePhase classifies the two bottleneck queues' synchronization.
func queuePhase(res *core.Result) (analysis.PhaseMode, float64) {
	return analysis.Phase(res.Q1(), res.Q2(), res.MeasureFrom, res.MeasureTo, time.Second)
}

// cwndPhase classifies two connections' window synchronization.
func cwndPhase(res *core.Result, a, b int) (analysis.PhaseMode, float64) {
	return analysis.Phase(res.Cwnd[a], res.Cwnd[b], res.MeasureFrom, res.MeasureTo, time.Second)
}

// outcome is an Outcome on res that plots series over the last span
// of res's measurement window, like the paper's figures.
func outcome(res *core.Result, span time.Duration, series ...*trace.Series) *Outcome {
	from := max(res.MeasureTo-span, res.MeasureFrom)
	return &Outcome{Result: res, Series: series, PlotFrom: from, PlotTo: res.MeasureTo}
}

// runConfigs runs an experiment's simulations as one batch, fanned
// across o.workers() arenas by runner.RunConfigs; results come back in
// config order. It threads the experiment-level observability knobs
// (Options.Observer, Options.Invariants) into every run, so enabling
// -progress or -invariants on the CLI covers every experiment: each one
// hands all its configs here. Observation is passive: the Results are
// byte-identical with or without an Observer or checker. It instruments
// cfgs in place.
func runConfigs(o Options, cfgs ...core.Config) []*core.Result {
	for i := range cfgs {
		cfgs[i] = o.instrument(cfgs[i])
	}
	results := runner.RunConfigs(o.workers(), cfgs)
	for _, res := range results {
		o.report(res)
	}
	return results
}

// instrument sets cfg's observer and invariant checker from o.
func (o Options) instrument(cfg core.Config) core.Config {
	if o.Observer != nil {
		cfg.Obs = &obs.Options{Progress: o.Observer}
	}
	if o.Invariants {
		cfg.Invariants = &tstore.CheckOptions{}
	}
	return cfg
}

// report records a run's invariant violation for the registry's
// wrapper to turn into a failed check; an experiment called directly,
// without the wrapper, panics with it instead.
func (o Options) report(res *core.Result) {
	if v := res.Invariant; v != nil {
		if o.found == nil {
			panic(v.Error())
		}
		o.found.add(v)
	}
}
