package experiment

import (
	"fmt"
	"math"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/trace"
)

// Fig2OneWay reproduces Figure 2: three one-way connections, τ = 1 s,
// buffer 20. The paper reports ~90 % utilization, a ~34 s oscillation
// period, complete packet clustering, and in-phase window- and
// loss-synchronization with each connection losing exactly one packet
// per congestion epoch.
func Fig2OneWay(opts Options) *Outcome {
	res := runConfigs(opts, oneWayConfig(opts, time.Second, core.DefaultBuffer, 3))[0]

	epochs := measuredEpochs(res, 10*time.Second)
	period := meanEpochPeriod(epochs)
	// Fraction of epochs in which every connection lost exactly one
	// packet.
	oneEach := 0
	for _, e := range epochs {
		by := e.LossByConn()
		if len(by) == 3 && by[1] == 1 && by[2] == 1 && by[3] == 1 {
			oneEach++
		}
	}
	oneEachFrac := 0.0
	if len(epochs) > 0 {
		oneEachFrac = float64(oneEach) / float64(len(epochs))
	}
	clus := dataClustering(res, 0, 0)
	// Window-synchronization: all pairs of cwnd series positively
	// correlated.
	minCorr := math.Inf(1)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			_, r := cwndPhase(res, i, j)
			if r < minCorr {
				minCorr = r
			}
		}
	}
	util := res.UtilForward()

	o := outcome(res, 140*time.Second, res.Q1(), res.Cwnd[0], res.Cwnd[1], res.Cwnd[2])
	o.Metrics = []Metric{
		metric("bottleneck utilization", "≈ 90 %", inBand(util, 0.85, 0.95), "%.1f %%", util*100),
		metric("oscillation period", "≈ 34 s", period > 25*time.Second && period < 45*time.Second,
			"%v", period.Round(time.Second)),
		metric("epochs with 1 drop per connection", "all epochs", oneEachFrac >= 0.9,
			"%.0f %% of %d epochs", oneEachFrac*100, len(epochs)),
		metric("packet clustering", "complete", clus >= 0.8, "%.3f", clus),
		metric("window synchronization", "in-phase (all pairs)", minCorr > 0.2,
			"min pairwise corr %.2f", minCorr),
		metric("ACK drops", "none", ackDropCount(res) == 0, "%d", ackDropCount(res)),
	}
	return o
}

// OneWaySmallPipe reproduces the §3.1 remark that with τ = 0.01 s the
// one-way utilization is nearly 100 %, and demonstrates that one-way
// ACKs keep their clock: no compressed ACK gaps.
func OneWaySmallPipe(opts Options) *Outcome {
	cfg := oneWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer, 3)
	cfg.Warmup = opts.scale(100 * time.Second)
	cfg.Duration = opts.scale(500 * time.Second)
	res := runConfigs(opts, cfg)[0]

	util := res.UtilForward()
	comp := compression(res, 0)

	o := outcome(res, 120*time.Second, res.Q1())
	o.Metrics = []Metric{
		metric("bottleneck utilization", "≈ 100 %", util >= 0.97, "%.1f %%", util*100),
		metric("compressed ACK gaps", "none (ACKs are a reliable clock)",
			comp.CompressedFraction() <= 0.05, "%.1f %% of %d gaps",
			comp.CompressedFraction()*100, comp.Gaps),
	}
	return o
}

// OneWayBufferSweep reproduces the §3.1 scaling claim: with one-way
// traffic, the bottleneck idle time vanishes as buffers grow —
// asymptotically like B⁻². (Contrast with the two-way out-of-phase mode,
// where idle time survives infinite buffers.) The power law is fit
// against the path capacity C = B + 2P, the quantity the cycle length is
// actually proportional to; the pure-B slope converges to the same -2
// only once B ≫ 2P.
func OneWayBufferSweep(opts Options) *Outcome {
	buffers := []int{20, 40, 60, 90, 120}
	idle := make([]float64, len(buffers))
	util := make([]float64, len(buffers))
	caps := make([]int, len(buffers))
	idleSeries := trace.NewSeries("idle-fraction-vs-buffer")
	cfgs := make([]core.Config, len(buffers))
	for i, b := range buffers {
		cfg := oneWayConfig(opts, time.Second, b, 3)
		// Long runs: the oscillation period grows like C², so big
		// buffers need thousands of simulated seconds per cycle.
		cfg.Warmup = opts.scale(300 * time.Second)
		cfg.Duration = opts.scale(3300 * time.Second)
		cfgs[i] = cfg
	}
	results := runConfigs(opts, cfgs...)
	var twoP float64
	for i, b := range buffers {
		res := results[i]
		twoP = 2 * cfgs[i].PipeSize()
		caps[i] = b + int(twoP)
		util[i] = res.UtilForward()
		idle[i] = 1 - util[i]
		// A time series used as an x/y table: x = buffer in "seconds"
		// for the TSV export.
		idleSeries.Append(time.Duration(b)*time.Second, idle[i])
	}

	// Utilization should be nondecreasing in B (small tolerance for the
	// discreteness of drop patterns).
	monotone := true
	for i := 1; i < len(util); i++ {
		if util[i] < util[i-1]-0.02 {
			monotone = false
		}
	}
	// Least-squares fit of log(idle) against log(C); zero idle fractions
	// are clamped to a tiny floor.
	var logC, logIdle []float64
	for i := range caps {
		logC = append(logC, math.Log(float64(caps[i])))
		logIdle = append(logIdle, math.Log(max(idle[i], 1e-6)))
	}
	slope, _, _ := analysis.LinearFit(logC, logIdle)

	o := &Outcome{
		Series: []*trace.Series{idleSeries},
	}
	o.PlotFrom, o.PlotTo = 0, time.Duration(buffers[len(buffers)-1])*time.Second
	o.Metrics = []Metric{
		metric("utilization grows with buffer", "increasing", monotone,
			"utils %s", fmtPercents(util)),
		metric("idle-time power law vs capacity", "idle ≈ C⁻² asymptotically",
			inBand(slope, -2.8, -1.2), "log-log slope %.2f over C=%v", slope, caps),
	}
	o.Notes = append(o.Notes, fmt.Sprintf("buffers %v → idle %s", buffers, fmtPercents(idle)))
	return o
}

func fmtPercents(vals []float64) string {
	s := ""
	for i, v := range vals {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.1f%%", v*100)
	}
	return s
}

// epochLossSummary is reused by the two-way experiments.
func epochLossSummary(epochs []analysis.Epoch) string {
	if len(epochs) == 0 {
		return "no epochs"
	}
	return fmt.Sprintf("%d epochs, %.1f drops/epoch", len(epochs), meanDropsPerEpoch(epochs))
}
