package tahoedyn

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
)

func TestFacadeRunAndAnalyze(t *testing.T) {
	cfg := Dumbbell(10*time.Millisecond, 20)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Warmup = 50 * time.Second
	cfg.Duration = 250 * time.Second
	res := Run(cfg)
	if res.UtilForward() <= 0 || res.UtilForward() > 1 {
		t.Fatalf("utilization out of range: %v", res.UtilForward())
	}
	mode, _ := Phase(res.Cwnd[0], res.Cwnd[1], cfg.Warmup, cfg.Duration, time.Second)
	if mode != PhaseOut && mode != PhaseIn && mode != PhaseMixed {
		t.Fatalf("unexpected phase mode %v", mode)
	}
	if len(res.Drops) == 0 {
		t.Fatal("expected drops in the congested scenario")
	}
	for _, d := range res.Drops {
		if d.Kind == packet.Ack {
			t.Fatal("an ACK was dropped")
		}
	}
	eps := Epochs(res.Drops, 2*time.Second)
	if len(eps) == 0 {
		t.Fatal("no congestion epochs detected")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	defs := Experiments()
	if len(defs) != 25 {
		t.Fatalf("registry has %d experiments, want 25", len(defs))
	}
	if _, err := Experiment("no-such-experiment", ExpOptions{}); err == nil || !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("unknown experiment: err = %v, want one naming it", err)
	}
	out, err := Experiment("oneway-smallpipe", ExpOptions{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != "oneway-smallpipe" {
		t.Fatalf("outcome ID = %q", out.ID)
	}
}

func TestFacadePlotters(t *testing.T) {
	cfg := Dumbbell(10*time.Millisecond, 20)
	cfg.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: 0}}
	cfg.Warmup = 10 * time.Second
	cfg.Duration = 60 * time.Second
	res := Run(cfg)

	var ascii strings.Builder
	err := PlotASCII(&ascii, PlotOptions{Width: 40, Height: 8, From: cfg.Warmup, To: cfg.Duration}, res.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii.String(), "sw0->sw1") {
		t.Fatalf("plot missing series name:\n%s", ascii.String())
	}

	var tsv strings.Builder
	if err := PlotTSV(&tsv, cfg.Warmup, cfg.Duration, time.Second, res.Q1(), res.Q2()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(tsv.String(), "\n"); lines != 51 {
		t.Fatalf("TSV lines = %d, want 51 (header + 50 samples)", lines)
	}
}

func TestFacadeParseScenario(t *testing.T) {
	js := `{"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}],
	        "warmup":"5s","duration":"20s"}`
	cfg, err := ParseScenario(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(cfg)
	if res.Goodput[0] == 0 {
		t.Fatal("parsed scenario produced no goodput")
	}
	if _, err := ParseScenario(strings.NewReader("{}")); err == nil {
		t.Fatal("no error for empty scenario")
	}
}

// Scenarios that used to build and run to a goodput of zero, or never
// end: trunk delays whose path costs overflow the routing metric, and
// links of weight 0, whose ties route a connection round in a circle.
// Both are errors from RunE and CompileTopology now, never a run and
// never a panic. Route overrides, the other way to loop a path, are
// gone: a scenario that still carries them does not parse.
func TestFacadeRejectsOverflowAndLoops(t *testing.T) {
	for name, tc := range map[string]struct{ js, want string }{
		"overflow": {
			`{"topology":{"generator":"chain","size":4},"trunk_delay":"2000000h","buffer":20,"conns":[{"src":0,"dst":3}]}`,
			"topology: link 1 (weight 2000000h0m0.08s) takes the sum of the link weights past",
		},
		"zero weight": {
			`{"topology":{"switches":3,"links":[{"a":0,"b":1},{"a":1,"b":2},{"a":0,"b":2}]},
			  "trunk_delay":"0s","trunk_bandwidth":10000000000000,"buffer":20,"conns":[{"src":0,"dst":2}]}`,
			"topology: link 0 (switch 0 - switch 1) has routing weight 0",
		},
	} {
		cfg, err := ParseScenario(strings.NewReader(tc.js))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := CompileTopology(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CompileTopology: %v, want %q", name, err, tc.want)
		}
		if _, err := RunE(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunE: %v, want %q", name, err, tc.want)
		}
	}
	_, err := ParseScenario(strings.NewReader(`{"topology":{"switches":3,"links":[{"a":0,"b":1},{"a":1,"b":2}],
		"routes":[{"at":1,"dst":2,"via":0},{"at":0,"dst":2,"via":1}]},
		"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":2}]}`))
	if err == nil || !strings.Contains(err.Error(), `"topology.routes"`) {
		t.Fatalf("a scenario with route overrides: err %v, want one naming \"topology.routes\"", err)
	}
}

func TestFacadeAnalysisHelpers(t *testing.T) {
	deps := []trace.Departure{
		trace.NewDeparture(0, 1, packet.Data, 0), trace.NewDeparture(0, 1, packet.Data, 1),
		trace.NewDeparture(0, 2, packet.Data, 0), trace.NewDeparture(0, 2, packet.Data, 1),
	}
	if got := Clustering(deps); got != 2.0/3 {
		t.Fatalf("Clustering = %v, want 2/3", got)
	}
	arr := []time.Duration{0, 8 * time.Millisecond, 88 * time.Millisecond}
	st := AckCompression(arr, 80*time.Millisecond, 0)
	if st.Gaps != 2 || st.Compressed != 1 {
		t.Fatalf("compression = %+v", st)
	}
	if got := len(Epochs(nil, time.Second)); got != 0 {
		t.Fatalf("empty epochs = %d", got)
	}
	// The queue surface is wired to core.
	cfg := Dumbbell(10*time.Millisecond, 20)
	cfg.Queue = &QueueSpec{Policy: QueuePolicyFairQueue}
	cfg.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: 0}}
	cfg.Warmup = 5 * time.Second
	cfg.Duration = 20 * time.Second
	if res := Run(cfg); res.Goodput[0] == 0 {
		t.Fatal("FQ facade run produced no goodput")
	}
}

// ParseTopoSpec is the one-flag topology helper both CLIs build on.
func TestParseTopoSpec(t *testing.T) {
	g, conns, err := ParseTopoSpec("")
	if err != nil || g != nil || len(conns) != 2 {
		t.Fatalf("default: %v, %d conns, %v", g, len(conns), err)
	}
	if _, conns, err = ParseTopoSpec("dumbbell"); err != nil || len(conns) != 2 {
		t.Fatalf("dumbbell: %d conns, %v", len(conns), err)
	}
	g, conns, err = ParseTopoSpec("chain:4")
	if err != nil || g == nil || g.Switches != 4 || len(conns) != 2 {
		t.Fatalf("chain:4 = %+v, %d conns, %v", g, len(conns), err)
	}
	if conns[0].DstHost != 3 || conns[1].SrcHost != 3 {
		t.Fatalf("chain pair = %+v", conns)
	}
	g, conns, err = ParseTopoSpec("parking-lot:3")
	if err != nil || g == nil || g.Switches != 4 || len(conns) != 5 {
		t.Fatalf("parking-lot:3 = %+v, %d conns, %v", g, len(conns), err)
	}
	g, conns, err = ParseTopoSpec("ba:64:2:7")
	if err != nil || g == nil || g.Switches != 64 || len(conns) != 2 {
		t.Fatalf("ba:64:2:7 = %+v, %d conns, %v", g, len(conns), err)
	}
	if conns[0].DstHost != 63 || conns[1].SrcHost != 63 {
		t.Fatalf("ba pair = %+v", conns)
	}
	g, conns, err = ParseTopoSpec("waxman:32:5")
	if err != nil || g == nil || g.Switches != 32 || len(conns) != 2 {
		t.Fatalf("waxman:32:5 = %+v, %d conns, %v", g, len(conns), err)
	}
	for _, bad := range []string{
		"torus", "chain:1", "chain:x", "parking-lot:0", "dumbbell:2",
		"ba", "ba:64", "ba:64:2", "ba:64:2:1:9", "ba:1:1:1", "ba:64:0:1", "ba:64:64:1",
		"waxman", "waxman:1:1", "waxman:64:1:2",
	} {
		if _, _, err := ParseTopoSpec(bad); err == nil {
			t.Errorf("%q: no error", bad)
		}
	}
	// A size the packed route representations cannot carry is refused
	// before the generator allocates for it.
	for _, huge := range []string{
		"chain:3000000000", "chain:1073741825", "parking-lot:2147483647", "parking-lot:1073741824",
		"ba:3000000000:2:1", "ba:600000000:2:1", "waxman:3000000000:1", "waxman:1073741825:1",
	} {
		if _, _, err := ParseTopoSpec(huge); err == nil || !strings.Contains(err.Error(), "is too many") {
			t.Errorf("%q: got %v, want the size-limit error", huge, err)
		}
	}
	// Parse errors are self-correcting: a bad token is named and the
	// accepted forms are listed.
	_, _, err = ParseTopoSpec("ba:64:x:1")
	if err == nil || !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "ba:<n>:<m>:<seed>") {
		t.Errorf("ba:64:x:1 error = %v, want offending token and accepted form", err)
	}
	_, _, err = ParseTopoSpec("torus")
	if err == nil || !strings.Contains(err.Error(), "waxman:<n>:<seed>") {
		t.Errorf("torus error = %v, want accepted forms listed", err)
	}
}

// TestGeneratorSurfacesAgree holds the scenario "generator" key and the
// -topology flag to one generator table: for every (generator, size, m,
// seed) both can spell, they accept and refuse alike, and what they
// accept is the same Graph (-topology's nil is the default dumbbell).
func TestGeneratorSurfacesAgree(t *testing.T) {
	for _, in := range []struct {
		gen        string
		size, m    int
		seed       int64
		acceptable bool
	}{
		{"dumbbell", 0, 0, 0, true}, {"dumbbell", 2, 0, 0, false},
		{"chain", 2, 0, 0, true}, {"chain", 7, 0, 0, true}, {"chain", 1, 0, 0, false},
		{"chain", 0, 0, 0, false}, {"chain", -3, 0, 0, false}, {"chain", 3_000_000_000, 0, 0, false},
		{"parking-lot", 1, 0, 0, true}, {"parking-lot", 3, 0, 0, true}, {"parking-lot", 0, 0, 0, false},
		{"parking-lot", -1, 0, 0, false}, {"parking-lot", 1_073_741_824, 0, 0, false},
		{"ba", 2, 1, 0, true}, {"ba", 64, 2, 7, true}, {"ba", 64, 63, -9, true}, {"ba", 64, 64, 1, false},
		{"ba", 64, 0, 1, false}, {"ba", 1, 1, 1, false}, {"ba", 600_000_000, 2, 1, false},
		{"waxman", 2, 0, 0, true}, {"waxman", 32, 0, 5, true}, {"waxman", 1, 0, 1, false},
		{"waxman", 1_073_741_825, 0, 1, false},
	} {
		spec := in.gen + fmt.Sprintf(":%d", in.size)
		switch {
		case in.gen == "dumbbell" && in.size == 0:
			spec = "dumbbell"
		case in.gen == "ba":
			spec += fmt.Sprintf(":%d:%d", in.m, in.seed)
		case in.gen == "waxman":
			spec += fmt.Sprintf(":%d", in.seed)
		}
		flagGraph, _, flagErr := ParseTopoSpec(spec)
		cfg, fileErr := ParseScenario(strings.NewReader(fmt.Sprintf(
			`{"topology":{"generator":%q,"size":%d,"m":%d,"seed":%d},"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}]}`,
			in.gen, in.size, in.m, in.seed)))
		if (flagErr == nil) != in.acceptable || (fileErr == nil) != in.acceptable {
			t.Errorf("%s: -topology says %v, the scenario file %v; want acceptable=%v", spec, flagErr, fileErr, in.acceptable)
			continue
		}
		if !in.acceptable {
			continue
		}
		if flagGraph == nil {
			g := topology.Dumbbell()
			flagGraph = &g
		}
		if !reflect.DeepEqual(flagGraph, cfg.Topology) {
			t.Errorf("%s: -topology builds %+v, the scenario file %+v", spec, flagGraph, cfg.Topology)
		}
	}
}
