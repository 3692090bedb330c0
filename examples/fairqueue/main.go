// fairqueue contrasts the paper's FIFO drop-tail switches with Fair
// Queueing gateways (the §1-cited remedy) on the pathological two-way
// configuration: FQ isolates each connection's ACK train, the ACK clock
// survives, and both the square-wave fluctuations and the out-of-phase
// idle time disappear.
package main

import (
	"fmt"
	"os"
	"time"

	"tahoedyn"
)

func main() {
	fifo := run(tahoedyn.Dumbbell(10*time.Millisecond, 20), false)
	fq := run(tahoedyn.Dumbbell(10*time.Millisecond, 20), true)

	fmt.Println("two-way TCP Tahoe, τ=10ms, buffer 20 — FIFO vs Fair Queueing")
	fmt.Println()
	fmt.Printf("%-28s %-12s %s\n", "", "FIFO", "Fair Queueing")
	fmt.Printf("%-28s %-12s %s\n", "bottleneck utilization",
		pct(fifo.res.UtilForward()), pct(fq.res.UtilForward()))
	fmt.Printf("%-28s %-12s %s\n", "compressed ACK gaps",
		pct(fifo.comp), pct(fq.comp))
	fmt.Printf("%-28s %-12d %d\n", "packets dropped",
		len(fifo.res.Drops), len(fq.res.Drops))
	fmt.Println()
	fmt.Println("FIFO bottleneck queue (square waves), then FQ (smooth):")
	for _, r := range []runResult{fifo, fq} {
		err := tahoedyn.PlotASCII(os.Stdout, tahoedyn.PlotOptions{
			Width: 100, Height: 10,
			From: r.cfg.Duration - 20*time.Second, To: r.cfg.Duration,
		}, r.res.Q1())
		if err != nil {
			fmt.Fprintln(os.Stderr, "plot:", err)
			os.Exit(1)
		}
	}
}

type runResult struct {
	cfg  tahoedyn.Config
	res  *tahoedyn.Result
	comp float64
}

func run(cfg tahoedyn.Config, fairQueue bool) runResult {
	if fairQueue {
		cfg.Queue = &tahoedyn.QueueSpec{Policy: tahoedyn.QueuePolicyFairQueue}
	}
	cfg.Conns = []tahoedyn.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 100 * time.Second
	cfg.Duration = 500 * time.Second
	res := tahoedyn.Run(cfg)
	comp := tahoedyn.AckCompression(res.AckArrivals[0], cfg.DataTxTime(), cfg.Warmup)
	return runResult{cfg: cfg, res: res, comp: comp.CompressedFraction()}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
