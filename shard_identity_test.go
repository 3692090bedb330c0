package tahoedyn

// Shard-identity tests at the facade level: a sharded run (Config.Shards
// > 1, one engine per topology region with conservative-lookahead
// synchronization) must be byte-identical to the serial engine on every
// scenario the repository ships and on both §4 phase modes. -shards is a
// wall-clock knob, never a physics knob (DESIGN.md §12).

import (
	"path/filepath"
	"testing"
	"time"
)

// runShards runs cfg with an explicit shard count.
func runShards(cfg Config, k int) *Result {
	cfg.Shards = k
	return Run(cfg)
}

// TestShardIdentityPhaseModes pins serial-vs-sharded identity on the
// paper's two §4 synchronization modes. The dumbbell has two switches,
// so two regions with the trunk as the cut link.
func TestShardIdentityPhaseModes(t *testing.T) {
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
			assertSameRun(t, runShards(cfg, 1), runShards(cfg, 2))
		})
	}
}

// TestShardIdentityAcrossShippedScenarios runs every scenario file the
// repository ships at 2, 3, and 4 shards (clamped to the topology's
// switch count) against the serial run.
func TestShardIdentityAcrossShippedScenarios(t *testing.T) {
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
			serial := runShards(cfg, 1)
			for _, k := range []int{2, 3, 4} {
				assertSameRun(t, serial, runShards(cfg, k))
			}
		})
	}
}
