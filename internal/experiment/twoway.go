package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
)

// Fig3TenConns reproduces Figure 3 and the §3.2 discussion: ten
// connections, five in each direction, τ = 0.01 s, buffer 30. The paper
// reports rapid queue fluctuations, out-of-phase queue oscillations,
// ~91 % utilization, 99.8 % of drops being data packets, roughly ten
// drops per congestion epoch, and — against the usual rule of thumb —
// *lower* (~87 %) utilization when the buffer doubles to 60.
func Fig3TenConns(opts Options) *Outcome {
	build := func(buffer int) core.Config {
		cfg := dumbbell(opts, 10*time.Millisecond, buffer)
		for i := 0; i < 5; i++ {
			cfg.Conns = append(cfg.Conns,
				core.ConnSpec{SrcHost: 0, DstHost: 1, Start: -1},
				core.ConnSpec{SrcHost: 1, DstHost: 0, Start: -1})
		}
		return cfg
	}
	results := runConfigs(opts, build(30), build(60))
	res, res60 := results[0], results[1]

	util := res.UtilForward()
	util60 := res60.UtilForward()
	qmode, qr := queuePhase(res)
	epochs := measuredEpochs(res, 2*time.Second)
	drops := dropsAfter(res.Drops, res.MeasureFrom)
	dataFrac := 0.0
	if len(drops) > 0 {
		dataFrac = 1 - float64(ackDropCount(res))/float64(len(drops))
	}
	window := res.MeasureTo - res.MeasureFrom
	rises := analysis.RapidRises(res.Q1(), res.MeasureFrom, res.MeasureTo,
		res.Cfg.DataTxTime(), 4)
	risesPerMinute := float64(rises) / window.Minutes()

	o := outcome(res, 30*time.Second, res.Q1(), res.Q2())
	o.Metrics = []Metric{
		metric("bottleneck utilization (B=30)", "≈ 91 %", inBand(util, 0.82, 0.98), "%.1f %%", util*100),
		metric("utilization with B=60", "≈ 87 % (lower than B=30)",
			util60 < util+0.01, "%.1f %%", util60*100),
		metric("queue synchronization", "out-of-phase", qmode == analysis.PhaseOut,
			"%v (r=%.2f)", qmode, qr),
		metric("rapid queue fluctuations", "≥4-packet jumps within one data tx time",
			risesPerMinute > 10, "%.0f rapid rises/min", risesPerMinute),
		metric("fraction of drops that are data", "99.8 %",
			dataFrac >= 0.99, "%.2f %%", dataFrac*100),
		metric("mean drops per congestion epoch", "≈ 10 (the total acceleration)",
			inBand(meanDropsPerEpoch(epochs), 4, 20), "%.1f", meanDropsPerEpoch(epochs)),
	}
	o.Notes = append(o.Notes, epochLossSummary(epochs))
	return o
}

// Fig45TwoWaySmallPipe reproduces Figures 4 and 5: one connection in
// each direction, τ = 0.01 s, buffer 20. The paper reports out-of-phase
// window synchronization, congestion epochs in which one connection
// loses two packets and the other none (alternating), ~70 % utilization,
// and — the headline counterintuitive result — that utilization stays
// ~70 % when the buffer grows to 60 and 120.
func Fig45TwoWaySmallPipe(opts Options) *Outcome {
	results := runConfigs(opts,
		twoWayConfig(opts, 10*time.Millisecond, 20),
		twoWayConfig(opts, 10*time.Millisecond, 60),
		twoWayConfig(opts, 10*time.Millisecond, 120))
	res, res60, res120 := results[0], results[1], results[2]

	util := res.UtilForward()
	epochs := measuredEpochs(res, 2*time.Second)
	pat := analysis.ClassifyTwoConnDrops(epochs, 1, 2)
	oneSidedFrac := 0.0
	if pat.Epochs > 0 {
		oneSidedFrac = float64(pat.OneSided) / float64(pat.Epochs)
	}
	qmode, qr := queuePhase(res)
	wmode, wr := cwndPhase(res, 0, 1)
	comp := compression(res, 0)
	// §4.3.1's explanation for the buffer-insensitive idle time: queued
	// (compressed) ACKs inflate the *effective* pipe, and the inflation
	// grows with the buffer. Mean measured RTT is the probe.
	meanRTT := func(r *core.Result) time.Duration {
		return time.Duration(r.RTT[0].TimeAverage(r.MeasureFrom, r.MeasureTo) * float64(time.Second))
	}
	rtt20, rtt120 := meanRTT(res), meanRTT(res120)

	o := outcome(res, 30*time.Second, res.Q1(), res.Q2(), res.Cwnd[0], res.Cwnd[1])
	o.Metrics = []Metric{
		metric("bottleneck utilization", "≈ 70 %", inBand(util, 0.60, 0.80), "%.1f %%", util*100),
		metric("utilization with B=60", "stays ≈ 70 %",
			inBand(res60.UtilForward(), util-0.1, util+0.1), "%.1f %%", res60.UtilForward()*100),
		metric("utilization with B=120", "stays ≈ 70 %",
			inBand(res120.UtilForward(), util-0.1, util+0.1), "%.1f %%", res120.UtilForward()*100),
		metric("window synchronization", "out-of-phase", wmode == analysis.PhaseOut,
			"%v (r=%.2f)", wmode, wr),
		metric("queue synchronization", "out-of-phase", qmode == analysis.PhaseOut,
			"%v (r=%.2f)", qmode, qr),
		metric("one-sided loss epochs", "one connection takes both drops",
			oneSidedFrac >= 0.5, "%.0f %% of %d epochs", oneSidedFrac*100, pat.Epochs),
		metric("loser alternates between epochs", "always",
			pat.AlternationRate() >= 0.8, "%.0f %% of %d pairs",
			pat.AlternationRate()*100, pat.OneSidedPairs),
		metric("ACK compression present", "square-wave queue jumps",
			comp.CompressedFraction() > 0.2, "%.0f %% gaps compressed, min gap %v",
			comp.CompressedFraction()*100, comp.MinGap),
		metric("effective pipe grows with buffer (§4.3.1)",
			"queueing delay inflates the pipe",
			rtt120 > 2*rtt20, "mean RTT %v (B=20) → %v (B=120)",
			rtt20.Round(10*time.Millisecond), rtt120.Round(10*time.Millisecond)),
		metric("ACK drops", "none", ackDropCount(res) == 0, "%d", ackDropCount(res)),
	}
	o.Notes = append(o.Notes, epochLossSummary(epochs))
	o.Notes = append(o.Notes, fmt.Sprintf(
		"utilization vs buffer: B=20 %.1f%%, B=60 %.1f%%, B=120 %.1f%% — extra buffer does not buy throughput",
		util*100, res60.UtilForward()*100, res120.UtilForward()*100))
	return o
}

// Fig67TwoWayLargePipe reproduces Figures 6 and 7: one connection in
// each direction, τ = 1 s, buffer 20. The paper reports in-phase
// synchronization, each connection losing exactly one packet per
// congestion epoch, and ~60 % utilization.
func Fig67TwoWayLargePipe(opts Options) *Outcome {
	res := runConfigs(opts, twoWayConfig(opts, time.Second, core.DefaultBuffer))[0]

	util := res.UtilForward()
	epochs := measuredEpochs(res, 10*time.Second)
	pat := analysis.ClassifyTwoConnDrops(epochs, 1, 2)
	singleFrac := 0.0
	if pat.Epochs > 0 {
		singleFrac = float64(pat.SingleEach) / float64(pat.Epochs)
	}
	qmode, qr := queuePhase(res)
	wmode, wr := cwndPhase(res, 0, 1)

	o := outcome(res, 140*time.Second, res.Q1(), res.Q2(), res.Cwnd[0], res.Cwnd[1])
	o.Metrics = []Metric{
		metric("bottleneck utilization", "≈ 60 %", inBand(util, 0.52, 0.72), "%.1f %%", util*100),
		metric("window synchronization", "in-phase", wmode == analysis.PhaseIn,
			"%v (r=%.2f)", wmode, wr),
		metric("queue synchronization", "in-phase", qmode == analysis.PhaseIn,
			"%v (r=%.2f)", qmode, qr),
		metric("epochs with 1 drop per connection", "every epoch",
			singleFrac >= 0.85, "%.0f %% of %d epochs", singleFrac*100, pat.Epochs),
		metric("ACK drops", "none", ackDropCount(res) == 0, "%d", ackDropCount(res)),
	}
	o.Notes = append(o.Notes, epochLossSummary(epochs))
	return o
}
