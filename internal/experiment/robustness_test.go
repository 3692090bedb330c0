package experiment

// Robustness of the headline findings across random start times. The
// two-way system is multistable — the paper's §4.3.3 notes less-common
// modes beside the dominant ones — so these tests assert prevalence, not
// universality.

import (
	"testing"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

var robustnessSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func TestOutOfPhaseModeDominatesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	outOfPhase := 0
	for _, seed := range robustnessSeeds {
		cfg := twoWayConfig(Options{Seed: seed}, 10*time.Millisecond, core.DefaultBuffer)
		res := core.Run(cfg)
		mode, r := cwndPhase(res, 0, 1)
		util := res.UtilForward()
		t.Logf("seed %d: %v (r=%.2f), util %.1f%%", seed, mode, r, util*100)
		if mode == analysis.PhaseOut {
			outOfPhase++
			// The out-of-phase mode pins utilization near 70 %.
			if !inBand(util, 0.6, 0.8) {
				t.Errorf("seed %d: out-of-phase utilization %.1f%% out of band", seed, util*100)
			}
		}
	}
	// The paper's Figure 4 mode must be the dominant attractor.
	if outOfPhase < len(robustnessSeeds)/2+1 {
		t.Fatalf("out-of-phase mode in only %d/%d seeds", outOfPhase, len(robustnessSeeds))
	}
}

func TestInPhaseModeUniversalAtLargePipe(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range robustnessSeeds[:5] {
		cfg := twoWayConfig(Options{Seed: seed}, time.Second, core.DefaultBuffer)
		res := core.Run(cfg)
		mode, r := cwndPhase(res, 0, 1)
		t.Logf("seed %d: %v (r=%.2f), util %.1f%%", seed, mode, r, res.UtilForward()*100)
		if mode != analysis.PhaseIn {
			t.Errorf("seed %d: large-pipe mode %v, want in-phase", seed, mode)
		}
	}
}

func TestFig8NumbersHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	// The fixed-window system has a single attractor: the Fig. 8 queue
	// maxima are start-time independent.
	for _, seed := range robustnessSeeds[:5] {
		cfg := fixedWindowConfig(Options{Seed: seed}, 10*time.Millisecond, 30, 25)
		cfg.Warmup = 100 * time.Second
		cfg.Duration = 400 * time.Second
		res := core.Run(cfg)
		q1 := res.Q1().Max(res.MeasureFrom, res.MeasureTo)
		q2 := res.Q2().Max(res.MeasureFrom, res.MeasureTo)
		if q1 != 55 || q2 != 23 {
			t.Errorf("seed %d: queue maxima %v/%v, want 55/23", seed, q1, q2)
		}
	}
}

func TestOneWayUtilizationStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range robustnessSeeds[:5] {
		cfg := oneWayConfig(Options{Seed: seed}, time.Second, core.DefaultBuffer, 3)
		res := core.Run(cfg)
		if !inBand(res.UtilForward(), 0.85, 0.95) {
			t.Errorf("seed %d: one-way utilization %.1f%% out of band", seed, res.UtilForward()*100)
		}
	}
}

func TestFairQueueCureHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range robustnessSeeds[:5] {
		cfg := twoWayConfig(Options{Seed: seed}, 10*time.Millisecond, core.DefaultBuffer)
		cfg.Queue = &link.QueueSpec{Policy: link.PolicyFairQueue}
		res := core.Run(cfg)
		if res.UtilForward() < 0.95 {
			t.Errorf("seed %d: FQ utilization %.1f%%, want ≈full", seed, res.UtilForward()*100)
		}
		comp := compression(res, 0)
		if comp.CompressedFraction() > 0.1 {
			t.Errorf("seed %d: FQ compression %.0f%%, want ≈0", seed, comp.CompressedFraction()*100)
		}
	}
}
