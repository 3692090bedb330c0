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

// twoWayConfig is the canonical 1+1 two-way dumbbell of §4.
func twoWayConfig(tau time.Duration, buffer int, seed int64) core.Config {
	cfg := core.DumbbellConfig(tau, buffer)
	cfg.Seed = seed
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	return cfg
}

// oneWayConfig is the §3.1 configuration: n connections, all sources on
// host 1.
func oneWayConfig(tau time.Duration, buffer, n int, seed int64) core.Config {
	cfg := core.DumbbellConfig(tau, buffer)
	cfg.Seed = seed
	for i := 0; i < n; i++ {
		cfg.Conns = append(cfg.Conns, core.ConnSpec{SrcHost: 0, DstHost: 1, Start: -1})
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

// depsAfter filters departures to the measurement window.
func depsAfter(deps []trace.Departure, from time.Duration) []trace.Departure {
	var out []trace.Departure
	for _, d := range deps {
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
		depsAfter(res.TrunkDeps[trunk][dir], res.MeasureFrom), packet.Data))
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

// plotWindow returns a window of the given length ending at the run's
// end, for figure-like plots.
func plotWindow(res *core.Result, span time.Duration) (time.Duration, time.Duration) {
	from := res.MeasureTo - span
	if from < res.MeasureFrom {
		from = res.MeasureFrom
	}
	return from, res.MeasureTo
}

// runCore executes one simulation on behalf of an experiment, threading
// the experiment-level observability knobs (Options.Observer,
// Options.Invariants) into the run. Every experiment's simulation goes
// through here or through runConfigs, so enabling -progress or
// -invariants on the CLI covers all of them. Observation is passive:
// the Result is byte-identical with or without an Observer or checker.
func runCore(o Options, cfg core.Config) *core.Result {
	res := core.Run(o.instrument(cfg))
	o.report(res)
	return res
}

// runConfigs is runCore for a batch, fanned across o.workers() arenas
// by runner.RunConfigs; results come back in config order. It
// instruments cfgs in place.
func runConfigs(o Options, cfgs []core.Config) []*core.Result {
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
