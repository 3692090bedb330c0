package experiment

import (
	"fmt"
	"math"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
)

// Fig8FixedWindowSmallPipe reproduces Figure 8: fixed windows 30 and 25,
// τ = 0.01 s, infinite buffers. The paper reports square-wave queue
// oscillations of constant amplitude with queue 1 peaking at 55 and
// queue 2 at 23, full utilization of line 1 and ~86 % on line 2.
func Fig8FixedWindowSmallPipe(opts Options) *Outcome {
	res := runConfigs(opts, fixedWindowConfig(opts, 10*time.Millisecond, 30, 25))[0]

	q1max := res.Q1().Max(res.MeasureFrom, res.MeasureTo)
	q2max := res.Q2().Max(res.MeasureFrom, res.MeasureTo)
	comp := compression(res, 0)
	rises := analysis.RapidRises(res.Q1(), res.MeasureFrom, res.MeasureTo,
		res.Cfg.DataTxTime(), 4)
	// The §4.2 chronology: a compressed ACK cluster leaving one queue IS
	// the data burst hitting the other, so rapid rises in Q1 coincide
	// with rapid falls in Q2.
	coupled := analysis.CoupledSwings(res.Q1(), res.Q2(),
		res.MeasureFrom, res.MeasureTo, res.Cfg.DataTxTime(), 500*time.Millisecond, 4)

	o := outcome(res, 20*time.Second, res.Q1(), res.Q2())
	o.Metrics = []Metric{
		metric("queue 1 maximum", "55 packets", inBand(q1max, 50, 58), "%.0f", q1max),
		metric("queue 2 maximum", "23 packets", inBand(q2max, 20, 26), "%.0f", q2max),
		metric("line 1 utilization", "100 %", res.UtilForward() >= 0.99,
			"%.1f %%", res.UtilForward()*100),
		metric("line 2 utilization", "≈ 86 %", inBand(res.UtilReverse(), 0.80, 0.92),
			"%.1f %%", res.UtilReverse()*100),
		metric("square-wave oscillations", "rapid constant-amplitude jumps",
			rises > 50, "%d rapid rises", rises),
		metric("queue swings coupled (§4.2 chronology)",
			"Q1 jumps as Q2 drains: the ACK cluster is the data burst",
			coupled >= 0.9, "%.0f %% of Q1 rises match a Q2 fall", coupled*100),
		metric("ACK compression", "ACK gaps collapse to ACK tx time",
			comp.CompressedFraction() > 0.5 && comp.MinGap <= 10*time.Millisecond,
			"%.0f %% compressed, min gap %v", comp.CompressedFraction()*100, comp.MinGap),
		metric("packet drops", "none (infinite buffers)", len(res.Drops) == 0,
			"%d", len(res.Drops)),
	}
	return o
}

// Fig9FixedWindowLargePipe reproduces Figure 9: fixed windows 30 and 25,
// τ = 1 s, infinite buffers. The paper reports both queues peaking at
// the same height (23), alternating plateau heights, and utilizations of
// ~81 % and ~70 % — neither line full.
func Fig9FixedWindowLargePipe(opts Options) *Outcome {
	res := runConfigs(opts, fixedWindowConfig(opts, time.Second, 30, 25))[0]

	q1max := res.Q1().Max(res.MeasureFrom, res.MeasureTo)
	q2max := res.Q2().Max(res.MeasureFrom, res.MeasureTo)

	// The Fig. 9 caption notes "an alternation pattern in the plateau
	// heights": the square wave cycles through distinct levels rather
	// than holding one crest (we measure a strict 23 → 7 → 1 cycle).
	plateaus := analysis.Plateaus(res.Q1(), res.MeasureFrom, res.MeasureTo,
		500*time.Millisecond, 1.0)
	altFrac := analysis.AlternationFraction(plateaus, 1.0)
	levels := map[int]bool{}
	for _, p := range plateaus {
		levels[int(p.Level)] = true
	}

	o := outcome(res, 20*time.Second, res.Q1(), res.Q2())
	o.Metrics = []Metric{
		metric("queue maxima equal", "both reach 23",
			inBand(q1max, 20, 26) && inBand(q2max, 20, 26) && q1max == q2max,
			"Q1=%.0f Q2=%.0f", q1max, q2max),
		metric("line 1 utilization", "≈ 81 % (neither line full)",
			inBand(res.UtilForward(), 0.74, 0.88), "%.1f %%", res.UtilForward()*100),
		metric("line 2 utilization", "≈ 70 %", inBand(res.UtilReverse(), 0.62, 0.78),
			"%.1f %%", res.UtilReverse()*100),
		metric("plateau heights alternate", "multi-level plateau cycle",
			altFrac >= 0.95 && len(levels) >= 3,
			"%d distinct levels, %.0f %% of consecutive plateaus differ",
			len(levels), altFrac*100),
		metric("packet drops", "none (infinite buffers)", len(res.Drops) == 0,
			"%d", len(res.Drops)),
	}
	return o
}

// ZeroACKConjecture tests the §4.3.3 conjecture for the zero-length-ACK
// fixed-window system with windows W1 ≥ W2:
//
//  1. W1 > W2 + 2P: the out-of-phase mode — exactly one line is fully
//     utilized, and the queue occupancies anticorrelate (the larger
//     window's queue never drains while the other sits mostly empty,
//     with unequal maxima, as in Fig. 8);
//  2. W1 < W2 + 2P: the in-phase mode — neither line is full (strict
//     inequality) and both queues reach the *same* maximum height, the
//     paper's own signature for this mode (Fig. 9 and the §4.3.3
//     discussion).
func ZeroACKConjecture(opts Options) *Outcome {
	cases := []struct {
		tau    time.Duration
		w1, w2 int
	}{
		// τ=1s: 2P = 25.
		{time.Second, 60, 20}, // 60 > 45: out-of-phase
		{time.Second, 55, 20}, // 55 > 45: out-of-phase
		{time.Second, 30, 25}, // 30 < 50: in-phase
		{time.Second, 40, 30}, // 40 < 55: in-phase
		// τ=0.01s: 2P = 0.25 — almost any unequal windows are out-of-phase.
		{10 * time.Millisecond, 30, 25}, // 30 > 25.25: out-of-phase
		{10 * time.Millisecond, 40, 20}, // out-of-phase
		{10 * time.Millisecond, 25, 25}, // equal: 25 < 25.25: in-phase
	}
	cfgs := make([]core.Config, len(cases))
	for i, c := range cases {
		cfgs[i] = fixedWindowConfig(opts, c.tau, c.w1, c.w2)
		cfgs[i].AckSize = 0
		cfgs[i].Duration = opts.scale(600 * time.Second)
	}
	results := runConfigs(opts, cfgs...)
	o := outcome(results[0], 60*time.Second, results[0].Q1(), results[0].Q2())
	// A line is "full" when its idle fraction is under 0.1 %; the strict
	// inequality W1 < W2+2P guarantees only strictly positive idle time.
	const full = 0.999
	for i, c := range cases {
		res := results[i]
		twoP := 2 * cfgs[i].PipeSize()
		wantOut := float64(c.w1) > float64(c.w2)+twoP
		mode, corr := queuePhase(res)
		uF, uR := res.UtilForward(), res.UtilReverse()
		q1max := res.Q1().Max(res.MeasureFrom, res.MeasureTo)
		q2max := res.Q2().Max(res.MeasureFrom, res.MeasureTo)
		var want string
		var pass bool
		if wantOut {
			want = "out-of-phase, one line full"
			oneFull := (uF >= full) != (uR >= full)
			pass = mode == analysis.PhaseOut && oneFull && math.Abs(q1max-q2max) > 5
		} else {
			want = "in-phase (equal queue maxima), neither full"
			pass = uF < full && uR < full && math.Abs(q1max-q2max) <= 2
		}
		o.Metrics = append(o.Metrics, metric(
			fmt.Sprintf("τ=%v W1=%d W2=%d (2P=%.2f)", c.tau, c.w1, c.w2, twoP),
			want, pass,
			"%v (r=%.2f), utils %.1f%%/%.1f%%, Qmax %.0f/%.0f",
			mode, corr, uF*100, uR*100, q1max, q2max))
	}
	o.Notes = append(o.Notes,
		"the in-phase mode's square waves are sequenced within each cycle, so raw queue "+
			"correlation is weak there; the paper's own discriminator — equal maximum queue "+
			"heights and neither line full — is what is checked")
	return o
}

// ACKCompressionProbe isolates the §4.2 mechanism: in the two-way
// fixed-window system, clustered ACKs leave a congested queue spaced at
// the ACK transmission time rather than the data transmission time,
// destroying the ACK clock; with one-way traffic the clock is intact.
// The probe also verifies the §4.2 remark that no ACK is ever dropped.
func ACKCompressionProbe(opts Options) *Outcome {
	// Two-way fixed windows: compression expected.
	twoCfg := fixedWindowConfig(opts, 10*time.Millisecond, 30, 25)
	twoCfg.Warmup, twoCfg.Duration = opts.scale(100*time.Second), opts.scale(500*time.Second)
	// One-way baseline with the same adaptive machinery disabled: a
	// single fixed-window connection. ACK spacing can never shrink.
	oneCfg := dumbbell(opts, 10*time.Millisecond, 0)
	oneCfg.Conns = []core.ConnSpec{{SrcHost: 0, DstHost: 1, FixedWnd: 30, Start: -1}}
	oneCfg.Warmup, oneCfg.Duration = twoCfg.Warmup, twoCfg.Duration
	results := runConfigs(opts, twoCfg, oneCfg)
	twoWay, oneWay := results[0], results[1]

	compTwo := compression(twoWay, 0)
	compOne := compression(oneWay, 0)
	ackTx := 8 * time.Millisecond // 50 B at 50 Kbps

	o := outcome(twoWay, 20*time.Second, twoWay.Q1(), twoWay.Q2())
	o.Metrics = []Metric{
		metric("two-way: compressed ACK gaps", "large fraction at ACK tx time",
			compTwo.CompressedFraction() > 0.5, "%.0f %% of %d gaps",
			compTwo.CompressedFraction()*100, compTwo.Gaps),
		metric("two-way: minimum ACK gap", "ACK transmission time (8 ms)",
			compTwo.MinGap >= ackTx-time.Millisecond && compTwo.MinGap <= ackTx+4*time.Millisecond,
			"%v", compTwo.MinGap),
		metric("one-way: compressed ACK gaps", "none (clock preserved)",
			compOne.CompressedFraction() <= 0.02, "%.1f %% of %d gaps",
			compOne.CompressedFraction()*100, compOne.Gaps),
		metric("one-way: minimum ACK gap", "≥ data transmission time (80 ms)",
			compOne.MinGap >= 72*time.Millisecond, "%v", compOne.MinGap),
		metric("ACK drops (both runs)", "ACKs are never dropped",
			ackDropCount(twoWay)+ackDropCount(oneWay) == 0, "%d",
			ackDropCount(twoWay)+ackDropCount(oneWay)),
	}
	return o
}
