package tahoedyn

// Determinism tests for the seeded queue/behavior/source surface: every
// stochastic draw (RED's probabilistic drops, stochastic impairments,
// on/off source periods) comes from a per-entity stream derived from
// Config.Seed and a partition-independent entity index, so a seeded run
// must be byte-identical at any shard count and under arena reuse.

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// behaviorConfig builds a four-switch chain loaded with RED queues, a
// lossy jittered trunk, and non-TCP sources next to a two-way TCP pair
// — every seeded entity the new surface introduces, all in one run.
func behaviorConfig(t *testing.T) Config {
	t.Helper()
	g := ChainTopology(4)
	cfg := Dumbbell(10*time.Millisecond, 20)
	cfg.Topology = &g
	cfg.Seed = 7
	cfg.Queue = &QueueSpec{Policy: QueuePolicyRED, MinTh: 3, MaxTh: 10, MaxP: 0.1, Wq: 0.01}
	cfg.Behavior = &BehaviorSpec{Loss: 0.005, Jitter: 2 * time.Millisecond}
	// One link overrides both: a random-drop queue under a bursty
	// Gilbert-Elliott channel.
	cfg.LinkQueue = map[int]*QueueSpec{1: {Policy: QueuePolicyRandomDrop}}
	cfg.LinkBehavior = map[int]*BehaviorSpec{
		1: {GoodToBad: 0.002, BadToGood: 0.3, BadLoss: 0.3},
	}
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 3, Start: -1},
		{SrcHost: 3, DstHost: 0, Start: -1},
		{SrcHost: 1, DstHost: 2, Start: -1,
			Source: &SourceSpec{Kind: SourceCBR, Rate: 8_000}},
		{SrcHost: 2, DstHost: 1, Start: -1,
			Source: &SourceSpec{Kind: SourceOnOff, Rate: 16_000,
				OnMean: 500 * time.Millisecond, OffMean: 500 * time.Millisecond}},
	}
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 80 * time.Second
	return cfg
}

// TestSeededBehaviorShardIdentity pins the satellite contract: the
// seeded-behavior run is byte-identical at shards 1, 2, and 4.
func TestSeededBehaviorShardIdentity(t *testing.T) {
	cfg := behaviorConfig(t)
	serial := runShards(cfg, 1)
	if serial.Goodput[2] == 0 {
		t.Fatal("CBR source delivered nothing; the scenario is not exercising sources")
	}
	if len(serial.Drops) == 0 {
		t.Fatal("no drops; the scenario is not exercising RED")
	}
	for _, k := range []int{2, 4} {
		assertSameRun(t, serial, runShards(cfg, k))
	}
}

// TestSeededBehaviorArenaIdentity pins seeded-behavior determinism
// under arena reuse: the same config run back to back on one Arena
// (with an unrelated run in between) reproduces the cold run exactly.
func TestSeededBehaviorArenaIdentity(t *testing.T) {
	cfg := behaviorConfig(t)
	cold := Run(cfg)
	a := NewArena()
	first := a.Run(cfg)
	assertSameRun(t, cold, first)
	// Perturb the arena with a different shape, then return.
	other := Dumbbell(time.Second, 10)
	other.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: -1}}
	other.Warmup, other.Duration = 5*time.Second, 20*time.Second
	a.Run(other)
	assertSameRun(t, cold, a.Run(cfg))
}

// TestSeededBehaviorSeedSensitivity double-checks the draws really are
// live: a different seed must change the line-loss pattern.
func TestSeededBehaviorSeedSensitivity(t *testing.T) {
	cfg := behaviorConfig(t)
	a := Run(cfg)
	cfg.Seed = 8
	b := Run(cfg)
	if a.Events == b.Events {
		t.Fatal("seed change left the run untouched; seeded streams are not live")
	}
}

// TestScenarioQueueBehaviorEndToEnd runs a scenario-file spelling of a
// seeded-behavior config through the facade parser and checks the same
// bytes come out at 1 and 2 shards.
func TestScenarioQueueBehaviorEndToEnd(t *testing.T) {
	j := `{
  "trunk_delay": "10ms",
  "buffer": 20,
  "queue": {"policy": "red", "min_th": 3, "max_th": 10, "max_p": 0.1, "wq": 0.01},
  "behavior": {"loss": 0.01, "jitter": "1ms"},
  "conns": [
    {"src": 0, "dst": 1},
    {"src": 1, "dst": 0},
    {"src": 0, "dst": 1, "source": {"kind": "cbr", "rate": 5000}}
  ],
  "seed": 3,
  "warmup": "10s",
  "duration": "40s"
}`
	cfg, err := ParseScenario(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	serial := runShards(cfg, 1)
	assertSameRun(t, serial, runShards(cfg, 2))
	if serial.Goodput[2] == 0 {
		t.Fatal("scenario-file CBR source delivered nothing")
	}
}

// TestLegacyQueueStringsRunIdentity pins the one-surface contract at
// run level: the "discard"/"discipline" strings are spelling only, so
// a file using them produces the same Result, field for field, as the
// file that says the same thing with a "queue" object — at 1 and 2
// shards.
func TestLegacyQueueStringsRunIdentity(t *testing.T) {
	const body = `{"trunk_delay": "10ms", "buffer": 20, "seed": 5,
  "conns": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}],
  "warmup": "20s", "duration": "120s", `
	for _, tc := range []struct{ name, legacy, queue string }{
		{"fair-queue", `"discipline": "fair-queue"}`, `"queue": {"policy": "fair-queue"}}`},
		{"random-drop", `"discard": "random-drop"}`, `"queue": {"policy": "random-drop"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := ParseScenario(strings.NewReader(body + tc.legacy))
			if err != nil {
				t.Fatal(err)
			}
			queue, err := ParseScenario(strings.NewReader(body + tc.queue))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2} {
				a, b := runShards(legacy, k), runShards(queue, k)
				if len(a.Drops) == 0 {
					t.Fatal("no drops; the scenario is not exercising the discipline")
				}
				assertSameRun(t, a, b)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("shards=%d: Results differ outside the fields assertSameRun names", k)
				}
			}
		})
	}
}
