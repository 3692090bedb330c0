package experiment

import (
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/tstore"
)

// TestAllExperimentsUnderInvariants runs every registered experiment
// under the streaming invariant checker. No run of any of them may break
// a rule: each one that did would show as a failed "invariant <rule>"
// check on its Outcome.
func TestAllExperimentsUnderInvariants(t *testing.T) {
	opts := Options{Invariants: true, Parallel: -1}
	if testing.Short() {
		opts.Scale = 0.25
	}
	outs := RunAll(opts)
	if len(outs) != len(All()) {
		t.Fatalf("RunAll returned %d outcomes, want %d", len(outs), len(All()))
	}
	for _, o := range outs {
		for _, m := range o.Metrics {
			if strings.HasPrefix(m.Name, "invariant ") {
				t.Errorf("%s: %s violated by %s", o.ID, m.Name, m.Measured)
			}
		}
	}
}

// A violation reported by any run of an experiment becomes a failed
// check named after its rule, appended after the experiment's own
// metrics in an order independent of which run reported first; without
// Invariants the wrapper only stamps the registry's name and title.
func TestCheckedTurnsViolationsIntoFailedChecks(t *testing.T) {
	vio := func(rule string, idx uint64) *tstore.Violation {
		return &tstore.Violation{Rule: rule, Index: idx, Loc: "sw0->sw1", Detail: "detail",
			Event: obs.Event{T: time.Second, Type: obs.Drop}}
	}
	run := checked(Definition{Name: "x", Title: "t", Run: func(o Options) *Outcome {
		if o.found != nil {
			o.found.add(vio("conservation", 9))
			o.found.add(vio("causality", 3))
		}
		return &Outcome{Metrics: []Metric{{Name: "band", Pass: true}}}
	}})
	if out := run(Options{}); !out.Passed() || len(out.Metrics) != 1 || out.ID != "x" || out.Title != "t" {
		t.Fatalf("without Invariants: %s %q %+v", out.ID, out.Title, out.Metrics)
	}
	out := run(Options{Invariants: true})
	if out.Passed() || len(out.Metrics) != 3 {
		t.Fatalf("under Invariants: passed=%v metrics=%+v", out.Passed(), out.Metrics)
	}
	if m := out.Metrics[1]; m.Name != "invariant causality" || m.Pass ||
		m.Measured != "event 3 (t=1s drop at sw0->sw1): detail" {
		t.Fatalf("first violation check = %+v", m)
	}
	if m := out.Metrics[2]; m.Name != "invariant conservation" || m.Pass {
		t.Fatalf("second violation check = %+v", m)
	}
}
