package experiment

import (
	"fmt"
	"math"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
	"tahoedyn/internal/model"
)

// RedSyncStudy contrasts drop-tail with RED gateways (Floyd &
// Jacobson) on the paper's two-way small-pipe configuration. Drop-tail
// drops arrive in correlated bursts at buffer overflow, which is the
// engine behind the paper's phase locking: both windows cut together,
// so the system settles into a rigid synchronization mode. RED drops
// probabilistically on the average queue, spreading the cuts in time —
// the prediction is that the phase lock loses its grip while the
// average queue falls well below the drop-tail operating point.
func RedSyncStudy(opts Options) *Outcome {
	// Buffer 40: deep enough that drop-tail sustains a standing queue
	// near the ceiling, so RED's early dropping has room to show.
	dtCfg := twoWayConfig(opts, 10*time.Millisecond, 40) // drop-tail, the paper's switches
	redCfg := dtCfg
	// A faster-tracking RED than the '93 defaults: the two-way bursts
	// here are abrupt (ACK-compression releases a window at line rate),
	// so the average must move quickly enough to drop early.
	redCfg.Queue = &link.QueueSpec{Policy: link.PolicyRED, MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.01}
	results := runConfigs(opts, dtCfg, redCfg)
	dt, red := results[0], results[1]

	dtMode, dtR := analysis.Phase(dt.Cwnd[0], dt.Cwnd[1], dt.MeasureFrom, dt.MeasureTo, time.Second)
	redMode, redR := analysis.Phase(red.Cwnd[0], red.Cwnd[1], red.MeasureFrom, red.MeasureTo, time.Second)
	dtPeak := dt.Q1().Max(dt.MeasureFrom, dt.MeasureTo)
	redPeak := red.Q1().Max(red.MeasureFrom, red.MeasureTo)
	dtQ := dt.Q1().TimeAverage(dt.MeasureFrom, dt.MeasureTo)
	redQ := red.Q1().TimeAverage(red.MeasureFrom, red.MeasureTo)

	o := outcome(red, 30*time.Second, dt.Q1(), red.Q1())
	o.Series[0].Name = "droptail-Q1"
	o.Series[1].Name = "red-Q1"
	o.Metrics = []Metric{
		metric("drop-tail window sync", "phase-locked (out-of-phase at τ=0.01s)",
			dtMode != analysis.PhaseMixed, "%v (r=%.2f)", dtMode, dtR),
		metric("RED window sync", "lock weakened: desynchronized cuts",
			math.Abs(redR) < math.Abs(dtR), "%v (r=%.2f) vs drop-tail r=%.2f", redMode, redR, dtR),
		metric("RED peak bottleneck queue", "early drops keep the buffer off its ceiling",
			redPeak < dtPeak*0.75, "%.0f pkts vs %.0f drop-tail (buffer %d)",
			redPeak, dtPeak, red.Cfg.Buffer),
		metric("RED mean bottleneck queue", "held near the thresholds, under drop-tail",
			redQ < dtQ*0.75, "%.1f pkts vs %.1f drop-tail", redQ, dtQ),
		metric("RED utilization", "comparable to drop-tail: no capacity price",
			red.UtilForward() > dt.UtilForward()-0.1, "%.1f %% vs %.1f %% drop-tail",
			red.UtilForward()*100, dt.UtilForward()*100),
	}
	o.Notes = append(o.Notes,
		"RED parameters: min_th=5 max_th=15 max_p=0.1 wq=0.01 (faster than the '93 defaults)")
	return o
}

// CrossTrafficStudy loads the two-way configuration with an
// unresponsive constant-bit-rate stream sharing the forward bottleneck
// — the §5 concern that real networks are not closed two-TCP systems.
// The CBR source ignores congestion entirely, so it keeps its offered
// rate while the TCP pair backs off to the residual capacity; the
// two-way phenomena (ACK compression through the shared queue) survive
// under the reduced share.
func CrossTrafficStudy(opts Options) *Outcome {
	const cbrRate = 10_000 // bits/s: 20 % of the 50 Kbps bottleneck
	baseCfg := twoWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer)
	crossCfg := twoWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer)
	crossCfg.Conns = append(crossCfg.Conns, core.ConnSpec{
		SrcHost: 0, DstHost: 1, Start: -1,
		Source: &core.SourceSpec{Kind: core.SourceCBR, Rate: cbrRate},
	})
	results := runConfigs(opts, baseCfg, crossCfg)
	base, res := results[0], results[1]

	window := res.MeasureTo - res.MeasureFrom
	offered := model.CBRPackets(cbrRate, res.Cfg.DataSize, window)
	cbrShare := float64(res.Goodput[2]) / offered
	comp := compression(res, 0)

	o := outcome(res, 30*time.Second, base.Q1(), res.Q1())
	o.Series[0].Name = "twoway-Q1"
	o.Series[1].Name = "cross-Q1"
	o.Metrics = []Metric{
		metric("CBR delivery", "unresponsive stream keeps its offered rate",
			cbrShare > 0.9, "%.0f %% of %d bit/s offered", cbrShare*100, cbrRate),
		metric("forward utilization", "no worse than the two-way baseline (≈70 %)",
			res.UtilForward() > base.UtilForward()-0.05, "%.1f %% (%.1f %% without cross-traffic)",
			res.UtilForward()*100, base.UtilForward()*100),
		metric("forward TCP goodput", "squeezed by the CBR share",
			res.Goodput[0] < base.Goodput[0], "%d pkts vs %d without cross-traffic",
			res.Goodput[0], base.Goodput[0]),
		metric("ACK compression", "persists through the shared queue",
			comp.CompressedFraction() > 0.1, "%.0f %% of ACKs compressed",
			comp.CompressedFraction()*100),
	}
	o.Notes = append(o.Notes, fmt.Sprintf(
		"goodputs with cross-traffic: %v; without: %v", res.Goodput, base.Goodput))
	return o
}
