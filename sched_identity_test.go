package tahoedyn

// Scheduler-identity tests at the facade level: the timing wheel must be
// byte-identical to the reference heap on every scenario the repository
// ships and on both §4 phase modes. Config.Sched is a wall-clock knob,
// never a physics knob.

import (
	"path/filepath"
	"testing"
	"time"
)

// phaseModeConfig is the §4 two-way dumbbell in the requested phase
// regime: τ=10ms sits in the out-of-phase region (Figs. 4–5), τ=1s in
// the in-phase region (Figs. 6–7).
func phaseModeConfig(tau time.Duration) Config {
	cfg := Dumbbell(tau, 20)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 80 * time.Second
	return cfg
}

// runSched runs cfg under one explicit scheduler.
func runSched(cfg Config, k SchedKind) *Result {
	cfg.Sched = k
	return Run(cfg)
}

// TestSchedIdentityPhaseModes pins heap-vs-wheel identity on the paper's
// two §4 synchronization modes.
func TestSchedIdentityPhaseModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		tau  time.Duration
	}{
		{"fig4-5-out-of-phase", 10 * time.Millisecond},
		{"fig6-7-in-phase", time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := phaseModeConfig(tc.tau)
			assertSameRun(t, runSched(cfg, SchedHeap), runSched(cfg, SchedWheel))
		})
	}
}

// TestSchedIdentityAcrossShippedScenarios runs every scenario file the
// repository ships — including parking-lot.json and chain-wave.json —
// under both schedulers and asserts identical physics.
func TestSchedIdentityAcrossShippedScenarios(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("found %d shipped scenarios, want at least 5", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			cfg := loadShippedScenario(t, path)
			assertSameRun(t, runSched(cfg, SchedHeap), runSched(cfg, SchedWheel))
		})
	}
}
