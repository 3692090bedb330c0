package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tahoedyn"
)

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("", 7)
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("fallback: got %v, %v", got, err)
	}
	got, err = parseSeeds("1, 2,3", 7)
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("list: got %v, %v", got, err)
	}
	if _, err := parseSeeds("1,x", 7); err == nil {
		t.Fatal("no error for bad seed")
	}
}

// Multi-seed output must be byte-identical whether the jobs ran serially
// or across 8 workers.
func TestRenderJobsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	jobs := buildJobs([]string{"oneway-smallpipe"}, []int64{1, 2, 3}, 0.1, 1, nil, false)
	render := func(workers int) []byte {
		rendered, outs, err := renderJobs(jobs, renderOptions{
			Parallel: workers, Plot: true, Width: 60, Height: 8, SeedHeaders: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(jobs) {
			t.Fatalf("got %d outcomes, want %d", len(outs), len(jobs))
		}
		var all bytes.Buffer
		for _, buf := range rendered {
			all.Write(buf.Bytes())
		}
		return all.Bytes()
	}
	serial, parallel := render(1), render(8)
	if len(serial) == 0 {
		t.Fatal("no output rendered")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("rendered output differs between 1 and 8 workers")
	}
	if !bytes.Contains(serial, []byte("== seed 2 ==")) {
		t.Fatal("multi-seed output missing seed header")
	}
}

func TestRenderJobsRejectsUnknownExperiment(t *testing.T) {
	jobs := buildJobs([]string{"no-such-experiment"}, []int64{1}, 0.1, 1, nil, false)
	if _, _, err := renderJobs(jobs, renderOptions{Parallel: 1}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestWriteTSVCreatesFile(t *testing.T) {
	dir := t.TempDir()
	out, err := tahoedyn.Experiment("oneway-smallpipe", tahoedyn.ExpOptions{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeTSV(dir, "smoke", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "smoke.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 100 {
		t.Fatalf("TSV has only %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_seconds\t") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestValidateScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pl.json")
	js := `{"trunk_delay":"10ms","buffer":20,
	        "topology":{"generator":"parking-lot","size":3},
	        "conns":[{"src":0,"dst":3},{"src":1,"dst":2}]}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := validateScenarioFile(&buf, path, false, overrides{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"valid",
		"switches: 4  hosts: 4  links: 3",
		"routes: 4 columns in 1 batch(es), 16 pushes (0.0 % stale), 4 distinct rows, 10 runs, 216 bytes (54 per switch), ",
		"link 0: sw0 <-> sw1  50000 bit/s, delay 10ms, buffer 20 pkts",
		"h3:link0->sw1",
		"conn 1: h0 -> h3 (3 trunk hops)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("validate output missing %q:\n%s", want, out)
		}
	}
	// A broken scenario must error without running anything.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"trunk_delay":"10ms","buffer":20,
	    "topology":{"switches":3,"links":[{"a":0,"b":1}]},
	    "conns":[{"src":0,"dst":1}]}`), 0o644)
	if err := validateScenarioFile(&buf, bad, false, overrides{}); err == nil {
		t.Fatal("disconnected topology did not error")
	}
}

// -validate replays link events the way a build does: an event the run
// would refuse fails validation with the run's own message, and every
// event that applies is reported in time order.
func TestValidateReplaysLinkEvents(t *testing.T) {
	dir := t.TempDir()
	bridge := filepath.Join(dir, "bridge.json")
	os.WriteFile(bridge, []byte(`{"topology":{"generator":"chain","size":4},"trunk_delay":"10ms","buffer":20,
	    "conns":[{"src":0,"dst":3}],"warmup":"2s","duration":"20s",
	    "events":[{"t":"8s","link":1,"down":true}]}`), 0o644)
	var buf bytes.Buffer
	err := validateScenarioFile(&buf, bridge, false, overrides{})
	const want = "core: event 0 (link 1 at 8s): topology: taking link 1 down disconnects the graph (bridge)"
	if err == nil || err.Error() != want || buf.Len() != 0 {
		t.Fatalf("bridge down: got %v after printing %q, want %q and no output", err, buf.String(), want)
	}
	if runErr := runScenarioFile(bridge, 80, 10, false, false, nil, "", false, overrides{}); runErr == nil || runErr.Error() != want {
		t.Fatalf("the run reports %v, -validate %q", runErr, want)
	}

	steps := filepath.Join(dir, "steps.json")
	os.WriteFile(steps, []byte(`{"topology":{"generator":"ba","size":64,"m":2,"seed":7},"trunk_delay":"10ms","buffer":20,
	    "conns":[{"src":0,"dst":63}],"warmup":"2s","duration":"20s",
	    "events":[{"t":"4s","link":123,"bandwidth":25000},{"t":"12s","link":123,"bandwidth":50000},
	              {"t":"6s","link":123,"down":true},{"t":"9s","link":123,"bandwidth":100000}]}`), 0o644)
	if err := validateScenarioFile(&buf, steps, false, overrides{}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "  event ") {
			got = append(got, line[:strings.Index(line, ",")])
		}
	}
	wantLines := []string{
		"  event 0 at 4s: link 123 weight 170ms",
		"  event 2 at 6s: link 123 down",
		"  event 3 at 9s: link 123 weight 50ms",
		"  event 1 at 12s: link 123 weight 90ms",
	}
	if strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("event lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantLines, "\n"))
	}
	if !strings.Contains(buf.String(), "switches re-routed (repair: 7 of 64 columns affected") {
		t.Errorf("event lines do not say what ApplyLinkChange did:\n%s", buf.String())
	}
}

// Every shipped scenario must validate.
func TestValidateShippedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, p := range files {
		var buf bytes.Buffer
		if err := validateScenarioFile(&buf, p, false, overrides{}); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestRunScenarioFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	js := `{"trunk_delay":"10ms","buffer":20,
	        "conns":[{"src":0,"dst":1},{"src":1,"dst":0}],
	        "warmup":"20s","duration":"80s"}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenarioFile(path, 60, 8, false, false, nil, "", false, overrides{}); err != nil {
		t.Fatal(err)
	}
	if err := runScenarioFile(filepath.Join(dir, "missing.json"), 60, 8, false, false, nil, "", false, overrides{}); err == nil {
		t.Fatal("no error for missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{}`), 0o644)
	if err := runScenarioFile(bad, 60, 8, false, false, nil, "", false, overrides{}); err == nil {
		t.Fatal("no error for invalid scenario")
	}
}

// sim runs the command in-process with the given arguments and returns
// the exit status and what it wrote to standard output and error.
func sim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	capture := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	outFile, errFile := capture("stdout"), capture("stderr")
	defer outFile.Close()
	defer errFile.Close()
	oldArgs, oldOut, oldErr, oldFlags := os.Args, os.Stdout, os.Stderr, flag.CommandLine
	defer func() { os.Args, os.Stdout, os.Stderr, flag.CommandLine = oldArgs, oldOut, oldErr, oldFlags }()
	os.Args, os.Stdout, os.Stderr = append([]string{"tahoe-sim"}, args...), outFile, errFile
	flag.CommandLine = flag.NewFlagSet("tahoe-sim", flag.ContinueOnError)
	code = run()
	read := func(f *os.File) string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return code, read(outFile), read(errFile)
}

// -trace-store reports what was written and whether the sink kept up.
// The "trace store: N events" prefix is what CI's round-trip step parses;
// the batch count is the run's own (139 357 events, 4 096 a ring), the
// waits are one execution's and only their shape is pinned.
func TestTraceStoreLine(t *testing.T) {
	store := filepath.Join(t.TempDir(), "run.tobc")
	code, stdout, stderr := sim(t, "-config", "../../scenarios/red-twoway.json", "-trace-store", store, "-invariants", "-plot=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	want := regexp.MustCompile(`(?m)^  trace store: 139357 events -> \S+run\.tobc \(35 batches; waited for the sink (\d+) times, \d+\.\d ms\)$`)
	m := want.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no trace store line of the documented shape in:\n%s", stdout)
	}
	if waits, _ := strconv.Atoi(m[1]); waits > 35 {
		t.Fatalf("waited %d times for 35 batches", waits)
	}
	if !strings.Contains(stdout, "invariants: clean") {
		t.Fatalf("the run did not report clean invariants:\n%s", stdout)
	}
	st, err := tahoedyn.OpenTraceStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.TotalEvents() != 139357 {
		t.Fatalf("the store holds %d events, the line says 139357", st.TotalEvents())
	}
}

// -validate used to parse -event, -queue and -behavior and then drop
// them, so it said "valid" for a command line whose run fails. It
// validates the configuration the run would build: the flags' events are
// replayed and the overridden queue and behavior are the ones printed.
func TestValidateAppliesOverrideFlags(t *testing.T) {
	const dumbbell = "../../scenarios/twoway-smallpipe.json"
	const bridge = "core: event 0 (link 0 at 5s): topology: taking link 0 down disconnects the graph (bridge)"
	for _, args := range [][]string{
		{"-config", dumbbell, "-validate", "-event", "link=0,t=5s,down"},
		{"-config", dumbbell, "-plot=false", "-event", "link=0,t=5s,down"},
	} {
		code, out, msg := sim(t, args...)
		if code != 1 || msg != "tahoe-sim: "+bridge+"\n" || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 with the run's error and nothing printed", args[2:], code, out, msg)
		}
	}

	code, out, msg := sim(t, "-config", dumbbell, "-validate",
		"-event", "link=0,t=5s,bw=25000", "-queue", "red", "-behavior", "loss=0.01")
	if code != 0 || msg != "" {
		t.Fatalf("harmless overrides: exit %d, stderr %q", code, msg)
	}
	for _, want := range []string{
		"  event 0 at 5s: link 0 weight ",
		"  queue: {Policy:red ",
		"  behavior: {Loss:0.01 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-validate with overrides does not print %q:\n%s", want, out)
		}
	}
}

// Inputs that used to validate, print nonsense routes ("-1 trunk hops")
// and run to a goodput of zero or not end at all: trunk delays whose
// path costs overflow the routing metric, and links of weight 0, whose
// ties let a route loop. Route overrides, which could loop a path too,
// are gone; a file that still carries them is refused by name. -validate
// and the run both exit 1 with the error.
func TestOverflowAndLoopExitOne(t *testing.T) {
	for name, tc := range map[string]struct{ js, want string }{
		"overflow": {
			`{"topology":{"generator":"chain","size":4},"trunk_delay":"2000000h","buffer":20,"conns":[{"src":0,"dst":3}]}`,
			"topology: link 1 (weight 2000000h0m0.08s) takes the sum of the link weights past 2562047h47m16.854775806s: path costs would overflow",
		},
		"route overrides": {
			`{"topology":{"switches":3,"links":[{"a":0,"b":1},{"a":1,"b":2}],"routes":[{"at":1,"dst":2,"via":0},{"at":0,"dst":2,"via":1}]},"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":2}]}`,
			`scenario: field "topology.routes" was removed; every route is the shortest path the compiler finds`,
		},
		"zero weight": {
			zeroWeightTriangle,
			"topology: link 0 (switch 0 - switch 1) has routing weight 0 (no delay, and a 500-byte packet takes 0s at 10000000000000 bit/s): every link weight must be positive",
		},
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(tc.js), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"-config", path, "-validate"}, {"-config", path, "-plot=false"}} {
			code, out, msg := sim(t, args...)
			if code != 1 || msg != "tahoe-sim: "+tc.want+"\n" || out != "" {
				t.Errorf("%s, %v: exit %d, stdout %q, stderr %q; want exit 1 with %q and nothing printed", name, args[2:], code, out, msg, tc.want)
			}
		}
	}
}

// zeroWeightTriangle is three switches in a ring whose links have no
// delay and, at 10 Tbit/s, transmit a 500-byte packet in under 1 ns:
// every link weighs 0, and switches 0 and 1 used to route host 2's
// traffic to each other.
const zeroWeightTriangle = `{"topology":{"switches":3,"links":[{"a":0,"b":1},{"a":1,"b":2},{"a":0,"b":2}]},"trunk_delay":"0s","trunk_bandwidth":10000000000000,"buffer":20,"conns":[{"src":0,"dst":2}]}`

// A topology too large for the packed route representations used to die
// inside the generator with "fatal error: out of memory", which nothing
// can recover from. It is an input error: exit 1 and a message, with
// -validate and without, whichever field carries the size.
func TestAbsurdTopologySizeExitsOne(t *testing.T) {
	for name, topo := range map[string]string{
		"generator": `"topology":{"generator":"chain","size":3000000000},`,
		"explicit":  `"topology":{"switches":3000000000},`,
		"line":      `"switches":3000000000,`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		js := `{` + topo + `"trunk_delay":"10ms","conns":[{"src":0,"dst":1}]}`
		if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"-config", path, "-validate"}, {"-config", path, "-plot=false"}} {
			code, _, msg := sim(t, args...)
			if code != 1 || !strings.Contains(msg, "a graph is limited to 2147483647 switches; 3000000000 is too many") {
				t.Errorf("%s, %v: exit %d with %q, want exit 1 and the size limit", name, args[1:], code, msg)
			}
		}
	}
}

// A bad flag value is a usage error: exit 2 with one line naming the
// flag, before anything runs. A -scale that is not a number, is not
// positive, or scales a run out of what a duration can hold is one.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig4-5", "-scale", "NaN"},
		{"-experiment", "fig4-5", "-scale", "+Inf"},
		{"-experiment", "fig4-5", "-scale", "1e300"},
		{"-experiment", "fig4-5", "-scale", "0"},
		{"-experiment", "fig4-5", "-scale", "-1"},
		{"-experiment", "fig4-5", "-scale", "1e-300"},
		{"-all", "-scale", "NaN"},
	} {
		code, out, msg := sim(t, append(args, "-plot=false")...)
		if code != 2 || out != "" || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "tahoe-sim: -scale ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming -scale", args, code, out, msg)
		}
	}
}
