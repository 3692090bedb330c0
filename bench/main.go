// Command bench is the repository's benchmark: six workloads, each a
// set of scenario JSON documents generated from a seed and pushed
// through scenario.Parse → core.BuildE → Sim.RunUntil → Sim.Finish, with
// every run's simulated statistics checked against a golden digest.
//
//	go run . [-workload W] [-seed N] [-reps 5]    untraced: end-to-end metrics
//	go run . -trace 1 [-workload W]               traced: the per-layer table, out/spans.json
//	go run . -sets 2                              noise floor: the suite twice, baseline/noise.json
//	go run . -smoke                               every workload at 1/20 size, once
//
// Run it from this directory. With -workload and -seconds (the form the
// benchmark driver uses, see ../BENCHMARK.json) the last line of
// standard output is one JSON object with the run's metrics.
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all six)")
		seed    = fs.Int64("seed", 1, "workload seed: inputs are a function of (workload, seed)")
		reps    = fs.Int("reps", 5, "timed repetitions per workload, after one discarded warm-up")
		seconds = fs.Float64("seconds", 0, "measure for about this long instead of -reps (at least 3 repetitions)")
		trace   = fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the untraced one")
		sets    = fs.Int("sets", 0, "run the untraced suite this many times back to back and compare the sets (noise floor)")
		smoke   = fs.Bool("smoke", false, "every workload at 1/20 size, one repetition, digests self-consistent")
		update  = fs.Bool("update-golden", false, "rewrite golden/<workload>.seed<N>.json from this run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// Closed, batch load: one simulation at a time on at most two cores.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	for _, w := range selected {
		if err := checkThreads(w, procs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	p := plan{seed: *seed, scale: 1, reps: *reps, seconds: *seconds}
	if *smoke {
		p = plan{seed: *seed, scale: 1.0 / 20, reps: 1, cold: true}
		isoOps = 20_000
	}

	switch {
	case *sets == 1:
		fmt.Fprintln(stderr, "bench: -sets compares sets with each other and needs at least 2")
		return 2
	case *sets > 1:
		return noiseFloor(selected, p, *sets, stdout, stderr)
	case *update:
		return updateGolden(selected, p, stdout, stderr)
	case *trace != 0 || *smoke:
		return runTraced(selected, p, *name != "" && *seconds > 0, stdout, stderr)
	}
	failed := 0
	var last report
	for _, w := range selected {
		rep, err := measure(w, p, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printEndToEnd(stdout, rep)
		failed += rep.failed
		last = rep
	}
	if *name != "" && *seconds > 0 {
		vals := map[string]float64{}
		for _, m := range endToEnd {
			vals[m.name] = last.endToEnd[m.name].Value
		}
		printResultLine(stdout, last, endToEnd, vals)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// checkThreads refuses a workload that would start more runnable
// goroutines than there are processors: its timings would measure the
// Go scheduler, not the simulator.
func checkThreads(w *workload, procs int) error {
	if w.threads > procs {
		return fmt.Errorf("workload %s needs %d goroutines, this machine offers %d processors", w.name, w.threads, procs)
	}
	return nil
}

// runTraced runs the traced pass over the selected workloads, prints
// its untraced repetition's end-to-end figures and the per-layer table,
// and writes out/spans.json. The smoke run is this pass at 1/20 size.
func runTraced(selected []*workload, p plan, resultLine bool, stdout, stderr io.Writer) int {
	failed := 0
	iso := isolated()
	var spans []span
	var last report
	for _, w := range selected {
		if len(selected) > 1 {
			resetPeakRSS()
		}
		rep, sp, err := traced(w, p, iso, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printEndToEnd(stdout, rep) // the untraced repetition the overhead is measured against
		printPerLayer(stdout, rep)
		failed += rep.failed
		for i := range sp { // keep ids unique across workloads
			sp[i].ID += len(spans)
			if sp[i].Parent >= 0 {
				sp[i].Parent += len(spans)
			}
		}
		spans = append(spans, sp...)
		last = rep
	}
	if err := writeSpans(spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if resultLine {
		printResultLine(stdout, last, perLayer, last.perLayer)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// updateGolden records the digests of one repetition as the goldens of
// (workload, seed).
func updateGolden(selected []*workload, p plan, stdout, stderr io.Writer) int {
	for _, w := range selected {
		l := &ledger{errw: stderr, workload: w.name}
		r := repetition(w.gen(p.seed, p.scale), l, nil, nil)
		if l.failed > 0 {
			return 1
		}
		if err := writeGolden(w.name, p.seed, r.digests); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d runs)\n", goldenPath(w.name, p.seed), len(r.digests))
	}
	return 0
}

func printEndToEnd(w io.Writer, rep report) {
	fmt.Fprintf(w, "\n%s  (untraced; ops_attempted=%d ops_failed=%d)\n", rep.workload, rep.attempted, rep.failed)
	if why := workloadByName(rep.workload).ungated; why != "" {
		fmt.Fprintf(w, "  not gated by BENCHMARK.json — %s\n", why)
	}
	fmt.Fprintf(w, "  %-22s %14s %14s %14s %14s %4s  %-6s %s\n", "metric", "value", "median", "q1", "q3", "n", "unit", "bound")
	row := func(name, unit, bound string) {
		s, ok := rep.endToEnd[name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "  %-22s %14.6g %14.6g %14.6g %14.6g %4d  %-6s %s\n", name, s.Value, s.Median, s.Q1, s.Q3, s.N, unit, bound)
	}
	for _, m := range endToEnd {
		dir := "↓"
		if m.better == "higher" {
			dir = "↑"
		}
		row(m.name, m.unit, fmt.Sprintf("%s %.0f%%", dir, m.bound*100))
	}
	row("store_mb", "MB", "↓ (not gated)")
}

func printPerLayer(w io.Writer, rep report) {
	fmt.Fprintf(w, "\n%s  (traced; ops_attempted=%d ops_failed=%d)\n", rep.workload, rep.attempted, rep.failed)
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-38s %16.6g  %s\n", m.name, rep.perLayer[m.name], m.unit)
	}
	// ns per simulated event by layer: share × steady_ns_per_event.
	nsPerEvent := rep.perLayer["core.steady_ns_per_event"]
	fmt.Fprintf(w, "  steady state, ns per simulated event by layer (share × core.steady_ns_per_event = %.1f ns):\n   ", nsPerEvent)
	sum := 0.0
	for _, b := range shareBuckets {
		pct := rep.perLayer[shareMetric(b)]
		sum += pct
		if pct >= 0.05 {
			fmt.Fprintf(w, " %s=%.1f", b, pct*nsPerEvent/100)
		}
	}
	fmt.Fprintf(w, "  (shares sum to %.1f%%)\n", sum)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
}

// printResultLine prints the driver's result object: exactly the keys
// correct, attempted, failed and metrics.
func printResultLine(w io.Writer, rep report, defs []metricDef, vals map[string]float64) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range defs {
		out.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", b)
}

// cpuModel names the processor, for the noise-floor recording.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
