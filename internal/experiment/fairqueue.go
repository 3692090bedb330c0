package experiment

import (
	"fmt"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

// FairQueueStudy contrasts the paper's FIFO switches with the Fair
// Queueing discipline of the §1-cited studies ([2] Davin & Heybey, [3]
// Demers, Keshav & Shenker). Per-connection bit-fair service means a
// clustered ACK train no longer waits behind the other connection's
// entire data cluster, so the ACK clock survives: ACK-compression, the
// square-wave fluctuations, and the out-of-phase idle time all vanish —
// and unequal-RTT unfairness is repaired.
func FairQueueStudy(opts Options) *Outcome {
	fairQueue := &link.QueueSpec{Policy: link.PolicyFairQueue}
	twoWay := func(q *link.QueueSpec) core.Config {
		cfg := twoWayConfig(opts, 10*time.Millisecond, core.DefaultBuffer)
		cfg.Queue = q
		return cfg
	}
	unequal := func(q *link.QueueSpec) core.Config {
		cfg := oneWayConfig(opts, time.Second, core.DefaultBuffer, 3)
		cfg.Queue = q
		cfg.Conns[1].ExtraDelay = 400 * time.Millisecond
		cfg.Conns[2].ExtraDelay = 800 * time.Millisecond
		return cfg
	}
	results := runConfigs(opts, twoWay(nil), twoWay(fairQueue), unequal(nil), unequal(fairQueue))
	fifo, fq, uFIFO, uFQ := results[0], results[1], results[2], results[3]

	compFIFO := compression(fifo, 0)
	compFQ := compression(fq, 0)
	risesFQ := analysis.RapidRises(fq.Q1(), fq.MeasureFrom, fq.MeasureTo, fq.Cfg.DataTxTime(), 4)
	jFIFO := analysis.JainIndex(uFIFO.Goodput)
	jFQ := analysis.JainIndex(uFQ.Goodput)

	o := outcome(fq, 30*time.Second, fifo.Q1(), fq.Q1())
	o.Series[0].Name = "fifo-Q1"
	o.Series[1].Name = "fq-Q1"
	o.Metrics = []Metric{
		metric("two-way utilization", "restored to ≈ full (FIFO ≈ 70 %)",
			fq.UtilForward() > 0.95, "%.1f %% vs %.1f %% FIFO",
			fq.UtilForward()*100, fifo.UtilForward()*100),
		metric("ACK compression", "eliminated: ACKs get bit-fair service",
			compFQ.CompressedFraction() < 0.1 && compFIFO.CompressedFraction() > 0.2,
			"%.0f %% vs %.0f %% FIFO",
			compFQ.CompressedFraction()*100, compFIFO.CompressedFraction()*100),
		metric("rapid queue fluctuations", "gone", risesFQ == 0, "%d rapid rises", risesFQ),
		metric("unequal-RTT fairness (Jain)", "repaired",
			jFQ > 0.9 && jFQ > jFIFO+0.2, "%.4f vs %.4f FIFO", jFQ, jFIFO),
	}
	o.Notes = append(o.Notes, fmt.Sprintf(
		"unequal-RTT goodputs: FIFO %v → FQ %v", uFIFO.Goodput, uFQ.Goodput))
	o.Notes = append(o.Notes,
		"this is the §1-cited Fair Queueing remedy: the ACK clock needs isolation, not buffer")
	return o
}
