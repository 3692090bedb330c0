package tahoedyn

import (
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/packet"
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

// Two scenarios that used to build and run to a goodput of zero: trunk
// delays whose path costs overflow the routing metric, and route
// overrides that send a connection round in a circle. Both are errors
// from RunE and CompileTopology now, never a run and never a panic.
func TestFacadeRejectsOverflowAndLoops(t *testing.T) {
	for name, tc := range map[string]struct{ js, want string }{
		"overflow": {
			`{"topology":{"generator":"chain","size":4},"trunk_delay":"2000000h","buffer":20,"conns":[{"src":0,"dst":3}]}`,
			"topology: link 1 (weight 2000000h0m0.08s) takes the sum of the link weights past",
		},
		"loop": {
			`{"topology":{"switches":3,"links":[{"a":0,"b":1},{"a":1,"b":2}],
			  "routes":[{"at":1,"dst":2,"via":0},{"at":0,"dst":2,"via":1}]},
			  "trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":2}]}`,
			"core: connection 0 (host 0 -> host 2): route overrides loop its data path, which comes back to switch 0",
		},
		"ack-loop": {
			`{"topology":{"switches":3,"links":[{"a":0,"b":1},{"a":1,"b":2}],
			  "routes":[{"at":1,"dst":2,"via":0},{"at":0,"dst":2,"via":1}]},
			  "trunk_delay":"10ms","buffer":20,"conns":[{"src":1,"dst":0},{"src":2,"dst":1}]}`,
			"core: connection 1 (host 2 -> host 1): route overrides loop its ACK path, which comes back to switch 1",
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
	// Overrides that do not loop still build: the detour is legal.
	cfg, err := ParseScenario(strings.NewReader(`{"topology":{"switches":3,
		"links":[{"a":0,"b":1},{"a":1,"b":2},{"a":0,"b":2}],"routes":[{"at":0,"dst":2,"via":1}]},
		"trunk_delay":"10ms","buffer":20,"warmup":"2s","duration":"10s","conns":[{"src":0,"dst":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := RunE(cfg); err != nil || res.Goodput[0] == 0 {
		t.Fatalf("a loop-free override: err %v", err)
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
