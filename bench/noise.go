package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// noiseRecord is baseline/noise.json: what two back-to-back sets of the
// untraced suite on one unchanged tree read, which is the evidence the
// bounds in BENCHMARK.json rest on.
type noiseRecord struct {
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	Seed      int64  `json:"seed"`
	Reps      int    `json:"reps"`
	// Sets[i][workload][metric] is set i's summary.
	Sets []map[string]map[string]summary `json:"sets"`
	// WorstRel[workload][metric] is the relative difference between a
	// later set's reported value and the first set's, signed so that positive
	// means worse; with more than two sets, the worst of them.
	WorstRel map[string]map[string]float64 `json:"worst_rel"`
}

// noiseFloor runs the untraced suite n times, prints every (metric,
// workload) pair's drift between sets next to its bound, writes the
// recording, and fails if any pair of a gated workload drifted past its
// bound.
func noiseFloor(selected []*workload, p plan, n int, stdout, stderr io.Writer) int {
	rec := noiseRecord{GoVersion: runtime.Version(), NProc: runtime.GOMAXPROCS(0), CPU: cpuModel(), Seed: p.seed, Reps: p.reps,
		WorstRel: map[string]map[string]float64{}}
	failedOps := 0
	for i := 0; i < n; i++ {
		set := map[string]map[string]summary{}
		for _, w := range selected {
			rep, err := measure(w, p, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "set %d:", i+1)
			printEndToEnd(stdout, rep)
			failedOps += rep.failed
			set[w.name] = rep.endToEnd
		}
		rec.Sets = append(rec.Sets, set)
	}

	over := 0
	fmt.Fprintf(stdout, "\nnoise floor: reported value of set k vs set 1 (positive = worse)\n")
	fmt.Fprintf(stdout, "  %-18s %-22s %10s %8s\n", "workload", "metric", "worst", "bound")
	for _, w := range selected {
		rec.WorstRel[w.name] = map[string]float64{}
		for _, m := range endToEnd {
			base := rec.Sets[0][w.name][m.name].Value
			worst := math.Inf(-1)
			for _, set := range rec.Sets[1:] {
				rel := (set[w.name][m.name].Value - base) / base
				if m.better == "higher" {
					rel = -rel
				}
				worst = max(worst, rel)
			}
			rec.WorstRel[w.name][m.name] = worst
			flag := ""
			switch {
			case worst <= m.bound:
			case w.ungated != "":
				flag = "  over (not gated)"
			default:
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(stdout, "  %-18s %-22s %+9.2f%% %7.0f%%%s\n", w.name, m.name, worst*100, m.bound*100, flag)
		}
	}

	b, err := json.MarshalIndent(rec, "", " ")
	if err == nil {
		if err = os.MkdirAll("baseline", 0o755); err == nil {
			err = os.WriteFile(filepath.Join("baseline", "noise.json"), append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if over > 0 || failedOps > 0 {
		fmt.Fprintf(stdout, "%d pair(s) over their bound, %d failed operation(s)\n", over, failedOps)
		return 1
	}
	return 0
}
