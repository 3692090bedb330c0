package experiment

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryNamesUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if seen[d.Name] {
			t.Fatalf("duplicate experiment name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Run == nil || d.Title == "" {
			t.Fatalf("incomplete definition %q", d.Name)
		}
		got, ok := Find(d.Name)
		if !ok || got.Name != d.Name {
			t.Fatalf("Find(%q) failed", d.Name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find of unknown name succeeded")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Fatalf("default seed = %d, want 1", o.seed())
	}
	if o.scale(10*time.Second) != 10*time.Second {
		t.Fatal("zero Scale should not rescale")
	}
	o.Scale = 0.5
	if o.scale(10*time.Second) != 5*time.Second {
		t.Fatal("Scale=0.5 should halve durations")
	}
}

// Validate refuses what no experiment can run at and nothing else: a
// Scale at either edge of the range still scales every duration into
// (0, MaxInt64] ns.
func TestOptionsValidate(t *testing.T) {
	edgeLow := 1 / float64(shortestScaled)                          // shortestScaled to 1 ns
	edgeHigh := float64(math.MaxInt64) / float64(longestScaled) / 2 // well inside
	for _, s := range []float64{0, 0.05, 1, 2.5, edgeLow, edgeHigh} {
		if err := (Options{Scale: s}).Validate(); err != nil {
			t.Errorf("Scale %v: %v", s, err)
		}
	}
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-9, 1e300, 1e-300, edgeLow / 2, 1e16} {
		if err := (Options{Scale: s}).Validate(); err == nil {
			t.Errorf("Scale %v: no error", s)
		}
	}
}

// shortestScaled and longestScaled bound every positive duration an
// experiment scales, which Validate relies on.
func TestScaledDurationsBounded(t *testing.T) {
	var mu sync.Mutex
	var lo, hi time.Duration
	onScale = func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if d > 0 && (lo == 0 || d < lo) {
			lo = d
		}
		hi = max(hi, d)
	}
	defer func() { onScale = nil }()
	RunAll(Options{Scale: 0.02})
	if lo != shortestScaled || hi != longestScaled {
		t.Fatalf("the experiments scale durations in [%v, %v]; shortestScaled and longestScaled say [%v, %v]",
			lo, hi, shortestScaled, longestScaled)
	}
}

func TestOptionsWorkers(t *testing.T) {
	cases := []struct{ parallel, wantMin int }{
		{0, 1}, {1, 1}, {4, 4},
	}
	for _, c := range cases {
		if got := (Options{Parallel: c.parallel}).workers(); got != c.wantMin {
			t.Fatalf("workers(Parallel=%d) = %d, want %d", c.parallel, got, c.wantMin)
		}
	}
	if got := (Options{Parallel: -1}).workers(); got < 1 {
		t.Fatalf("workers(Parallel=-1) = %d, want >= 1", got)
	}
}

// RunAll must return the registry in order, and every outcome —
// metrics, notes, series and plot window — must come out the same
// whether the experiments and their runs fan across 8 workers or run
// serially; mode-boundary's 40-run grid is the largest batch among them.
func TestRunAllOrderAndParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	serial := RunAll(Options{Scale: 0.05})
	parallel := RunAll(Options{Scale: 0.05, Parallel: 8})
	defs := All()
	if len(serial) != len(defs) || len(parallel) != len(defs) {
		t.Fatalf("RunAll returned %d and %d outcomes, want %d", len(serial), len(parallel), len(defs))
	}
	for i, d := range defs {
		if serial[i].ID != d.Name || parallel[i].ID != d.Name {
			t.Fatalf("outcome %d is %q serial and %q parallel, want %q", i, serial[i].ID, parallel[i].ID, d.Name)
		}
		if s, p := outcomeDigest(t, serial[i]), outcomeDigest(t, parallel[i]); s != p {
			var sb, pb strings.Builder
			serial[i].WriteText(&sb)
			parallel[i].WriteText(&pb)
			t.Errorf("%s: serial and parallel outcomes differ (sha256 %s vs %s)\nserial:\n%sparallel:\n%s",
				d.Name, s, p, sb.String(), pb.String())
		}
	}
}

func TestOutcomeWriteText(t *testing.T) {
	o := &Outcome{
		ID:    "x",
		Title: "t",
		Metrics: []Metric{
			metric("m1", "p1", true, "v1"),
			metric("m2", "p2", false, "v2"),
		},
		Notes: []string{"hello"},
	}
	if o.Passed() {
		t.Fatal("outcome with failing metric reported Passed")
	}
	var sb strings.Builder
	if err := o.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FAIL", "ok ", "BAD", "m1", "p2", "v2", "hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
