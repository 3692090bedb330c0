package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

const twoWayJSON = `{
  "trunk_delay": "10ms",
  "buffer": 20,
  "conns": [
    {"src": 0, "dst": 1},
    {"src": 1, "dst": 0, "start": "500ms"}
  ],
  "seed": 7,
  "warmup": "50s",
  "duration": "200s"
}`

func TestParseTwoWay(t *testing.T) {
	cfg, err := Parse(strings.NewReader(twoWayJSON))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TrunkDelay != 10*time.Millisecond || cfg.Buffer != 20 || cfg.Seed != 7 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.AckSize != core.DefaultAckSize {
		t.Fatalf("AckSize = %d, want default", cfg.AckSize)
	}
	if len(cfg.Conns) != 2 {
		t.Fatalf("conns = %d", len(cfg.Conns))
	}
	if cfg.Conns[0].Start != -1 {
		t.Fatalf("conn 0 start = %v, want random (-1)", cfg.Conns[0].Start)
	}
	if cfg.Conns[1].Start != 500*time.Millisecond {
		t.Fatalf("conn 1 start = %v", cfg.Conns[1].Start)
	}
	// And it must actually run.
	res := core.Run(cfg)
	if res.UtilForward() <= 0 {
		t.Fatal("parsed scenario did not run")
	}
}

func TestParseEvents(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,"switches":4,
	       "conns":[{"src":0,"dst":3}],
	       "events":[{"t":"120s","link":1,"bandwidth":25000},
	                 {"t":"2m30s","link":1,"bandwidth":50000}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.LinkEvent{
		{T: 120 * time.Second, Link: 1, Bandwidth: 25000},
		{T: 150 * time.Second, Link: 1, Bandwidth: 50000},
	}
	if len(cfg.Events) != len(want) {
		t.Fatalf("events = %+v", cfg.Events)
	}
	for i := range want {
		if cfg.Events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, cfg.Events[i], want[i])
		}
	}

	for name, bad := range map[string]string{
		"missing-t": `{"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}],
		               "events":[{"link":0,"bandwidth":1000}]}`,
		"bad-link": `{"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}],
		               "events":[{"t":"1s","link":4,"down":true}]}`,
		"down-and-bw": `{"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}],
		               "events":[{"t":"1s","link":0,"bandwidth":1000,"down":true}]}`,
		"no-kind": `{"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}],
		               "events":[{"t":"1s","link":0}]}`,
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}

	// Round trip: events survive Decode∘Encode canonically.
	canon, err := Canonical([]byte(`{
  "trunk_delay": "10ms",
  "buffer": 20,
  "conns": [
    {
      "src": 0,
      "dst": 1
    }
  ],
  "events": [
    {
      "t": "120s",
      "link": 0,
      "bandwidth": 25000
    }
  ]
}
`))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Canonical(canon)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, again) {
		t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", canon, again)
	}
	if !strings.Contains(string(canon), `"events"`) {
		t.Fatalf("events dropped from canonical form:\n%s", canon)
	}
}

// TestParsePolicies pins the legacy-string mapping: every
// (discard, discipline) pair lands on Config.Queue — nil for the
// drop-tail FIFO default, fair-queue winning over random-drop.
func TestParsePolicies(t *testing.T) {
	discards := map[string]string{"": "", "drop-tail": "", "random-drop": link.PolicyRandomDrop}
	disciplines := map[string]string{"": "", "fifo": "", "fair-queue": link.PolicyFairQueue}
	for discard, fromDiscard := range discards {
		for discipline, want := range disciplines {
			if want == "" {
				want = fromDiscard
			}
			j := `{"trunk_delay":"1s","buffer":30,"conns":[{"src":0,"dst":1}]`
			if discard != "" {
				j += `,"discard":"` + discard + `"`
			}
			if discipline != "" {
				j += `,"discipline":"` + discipline + `"`
			}
			cfg, err := Parse(strings.NewReader(j + "}"))
			if err != nil {
				t.Fatalf("discard=%q discipline=%q: %v", discard, discipline, err)
			}
			var wantSpec *link.QueueSpec
			if want != "" {
				wantSpec = &link.QueueSpec{Policy: want}
			}
			if !reflect.DeepEqual(cfg.Queue, wantSpec) {
				t.Errorf("discard=%q discipline=%q: Queue = %+v, want policy %q", discard, discipline, cfg.Queue, want)
			}
		}
	}
}

func TestParseZeroAck(t *testing.T) {
	// The modern spelling: an explicit "ack_size": 0 is honored as
	// written, distinguishable from omission thanks to the pointer field.
	j := `{"trunk_delay":"1s","buffer":0,"ack_size":0,
	       "conns":[{"src":0,"dst":1,"fixed_wnd":30}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AckSize != 0 {
		t.Fatalf("AckSize = %d, want 0", cfg.AckSize)
	}
	// The removed pre-pointer spelling is rejected with a migration
	// hint — by the lenient parser too: ignoring it would run the file
	// with 50-byte ACKs.
	j = `{"trunk_delay":"1s","buffer":0,"ack_size_zero":true,
	       "conns":[{"src":0,"dst":1,"fixed_wnd":30}]}`
	if _, err = Parse(strings.NewReader(j)); err == nil {
		t.Fatal("strict Parse accepted removed field ack_size_zero")
	} else if !strings.Contains(err.Error(), `"ack_size": 0`) {
		t.Fatalf("ack_size_zero rejection lacks migration hint: %v", err)
	}
	if _, _, err = ParseLenient(strings.NewReader(j)); err == nil || !strings.Contains(err.Error(), `"ack_size": 0`) {
		t.Fatalf("lenient parse of ack_size_zero: err = %v, want the migration hint", err)
	}
	// An explicit nonzero ack_size wins over everything.
	j = `{"trunk_delay":"1s","buffer":0,"ack_size":40,
	       "conns":[{"src":0,"dst":1}]}`
	if cfg, err = Parse(strings.NewReader(j)); err != nil {
		t.Fatal(err)
	}
	if cfg.AckSize != 40 {
		t.Fatalf("AckSize = %d, want 40", cfg.AckSize)
	}
}

func TestParseTopologyGenerator(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,
	       "topology":{"generator":"parking-lot","size":3},
	       "conns":[{"src":0,"dst":3},{"src":1,"dst":2}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil || cfg.Topology.Switches != 4 || len(cfg.Topology.Links) != 3 {
		t.Fatalf("topology = %+v", cfg.Topology)
	}
	if cfg.HostCount() != 4 {
		t.Fatalf("hosts = %d", cfg.HostCount())
	}
}

func TestParseTopologyRandomGenerators(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,
	       "topology":{"generator":"ba","size":32,"m":2,"seed":7},
	       "conns":[{"src":0,"dst":31}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil || cfg.Topology.Switches != 32 {
		t.Fatalf("ba topology = %+v", cfg.Topology)
	}
	// Same seed → same graph: the scenario is as reproducible as an
	// explicit link list.
	cfg2, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Topology.Links) != len(cfg2.Topology.Links) {
		t.Fatalf("ba reparse changed the graph")
	}
	j = `{"trunk_delay":"10ms","buffer":20,
	       "topology":{"generator":"waxman","size":40,"seed":3},
	       "conns":[{"src":0,"dst":39}]}`
	cfg, err = Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil || cfg.Topology.Switches != 40 {
		t.Fatalf("waxman topology = %+v", cfg.Topology)
	}
	if _, err := cfg.CompileTopology(); err != nil {
		t.Fatalf("waxman compile: %v", err)
	}
}

// TestParseValidatesWithoutCompilingRoutes: Parse checks the topology
// (and everything that refers to it — regions, events) on the resolved
// graph alone; the scenario's routes are compiled once, by Build. A
// parse that compiled them would allocate at least what a compile
// allocates; the parse's own decoding reads about a ninth of it.
func TestParseValidatesWithoutCompilingRoutes(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,"shards":2,
	       "topology":{"generator":"ba","size":512,"m":2,"seed":7},
	       "regions":[[` + intList(0, 256) + `],[` + intList(256, 512) + `]],
	       "events":[{"t":"5s","link":9,"bandwidth":25000}],
	       "conns":[{"src":0,"dst":511},{"src":300,"dst":17}]}`
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if _, err := cfg.CompileTopology(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	parse, compile := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	if parse*5 > compile {
		t.Fatalf("Parse allocated %d bytes, a route compile of the same graph %d: parse is compiling routes", parse, compile)
	}

	// The checks a compile used to back are all still made.
	for want, bad := range map[string]string{
		"graph is disconnected":  strings.Replace(j, `"generator":"ba","size":512,"m":2,"seed":7`, `"switches":512,"links":[{"a":0,"b":1}]`, 1),
		"is in no region":        strings.Replace(j, `],[256,`, `],[`, 1),
		"link 5000 out of range": strings.Replace(j, `"link":9`, `"link":5000`, 1),
		"host index out of":      strings.Replace(j, `"dst":17`, `"dst":512`, 1),
		`"topology.routes"`:      strings.Replace(j, `"seed":7`, `"seed":7,"routes":[{"at":0,"dst":5,"via":0}]`, 1),
		"switch 600 out of":      strings.Replace(j, `"seed":7`, `"seed":7,"hosts":[{"switch":0},{"switch":600}]`, 1),
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error mentioning %q, got %v", want, err)
		}
	}
}

// intList renders lo..hi-1 as a JSON array body.
func intList(lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		if i > lo {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	return b.String()
}

func TestParseTopologyExplicit(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,
	       "topology":{
	         "switches":3,
	         "links":[{"a":0,"b":1,"bandwidth":500000},
	                  {"a":1,"b":2,"delay":"50ms","buffer":-1}],
	         "hosts":[{"switch":0},{"switch":2},{"switch":2}]},
	       "conns":[{"src":0,"dst":1},{"src":0,"dst":2}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Topology
	if g == nil || g.Switches != 3 || len(g.Hosts) != 3 {
		t.Fatalf("topology = %+v", g)
	}
	if g.Links[0].Bandwidth != 500000 || g.Links[1].Delay != 50*time.Millisecond || g.Links[1].Buffer != -1 {
		t.Fatalf("links = %+v", g.Links)
	}
	compiled, err := cfg.CompileTopology()
	if err != nil {
		t.Fatal(err)
	}
	if compiled.NumHosts() != 3 {
		t.Fatalf("compiled hosts = %d", compiled.NumHosts())
	}
}

func TestParseTopologyErrors(t *testing.T) {
	cases := map[string]string{
		"empty topology":      `{"trunk_delay":"1s","buffer":20,"topology":{},"conns":[{"src":0,"dst":1}]}`,
		"unknown generator":   `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"torus","size":3},"conns":[{"src":0,"dst":1}]}`,
		"chain too small":     `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"chain","size":1},"conns":[{"src":0,"dst":1}]}`,
		"parking lot size":    `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"parking-lot"},"conns":[{"src":0,"dst":1}]}`,
		"generator and links": `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"chain","size":3,"switches":3},"conns":[{"src":0,"dst":1}]}`,
		"bad link delay":      `{"trunk_delay":"1s","buffer":20,"topology":{"switches":2,"links":[{"a":0,"b":1,"delay":"x"}]},"conns":[{"src":0,"dst":1}]}`,
		"disconnected":        `{"trunk_delay":"1s","buffer":20,"topology":{"switches":3,"links":[{"a":0,"b":1}]},"conns":[{"src":0,"dst":1}]}`,
		"self loop":           `{"trunk_delay":"1s","buffer":20,"topology":{"switches":2,"links":[{"a":0,"b":0},{"a":0,"b":1}]},"conns":[{"src":0,"dst":1}]}`,
		"route override":      `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"chain","size":3,"routes":[{"at":0,"dst":2,"via":2}]},"conns":[{"src":0,"dst":1}]}`,
		"ba too small":        `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"ba","size":1,"m":1},"conns":[{"src":0,"dst":1}]}`,
		"ba missing m":        `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"ba","size":8},"conns":[{"src":0,"dst":1}]}`,
		"ba m too large":      `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"ba","size":8,"m":8},"conns":[{"src":0,"dst":1}]}`,
		"waxman too small":    `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"waxman","size":1},"conns":[{"src":0,"dst":1}]}`,
		"m on chain":          `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"chain","size":4,"m":2},"conns":[{"src":0,"dst":1}]}`,
		"seed on parking-lot": `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"parking-lot","size":3,"seed":4},"conns":[{"src":0,"dst":1}]}`,
		"size on explicit":    `{"trunk_delay":"1s","buffer":20,"topology":{"switches":2,"links":[{"a":0,"b":1}],"size":7},"conns":[{"src":0,"dst":1}]}`,
		"dumbbell with size":  `{"trunk_delay":"1s","buffer":20,"topology":{"generator":"dumbbell","size":2},"conns":[{"src":0,"dst":1}]}`,
		"host out of range":   `{"trunk_delay":"1s","buffer":20,"conns":[{"src":0,"dst":5}]}`,
		"src equals dst":      `{"trunk_delay":"1s","buffer":20,"conns":[{"src":1,"dst":1}]}`,
		"negative ack size":   `{"trunk_delay":"1s","buffer":20,"ack_size":-1,"conns":[{"src":0,"dst":1}]}`,
	}
	for name, j := range cases {
		if _, err := Parse(strings.NewReader(j)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestParseTopologySizeLimit: a size the packed route representations
// cannot carry — 2³¹ switches or hosts, 2³⁰ links, the range where
// int32(link)<<1 would wrap silently — is a parse error raised before any
// generator allocates in proportion to it. (A generator that started on
// one of these would take the process down, not fail the test.)
func TestParseTopologySizeLimit(t *testing.T) {
	cases := map[string]string{
		"chain switches":       `"topology":{"generator":"chain","size":3000000000},`,
		"chain links":          `"topology":{"generator":"chain","size":1073741825},`,
		"parking-lot switches": `"topology":{"generator":"parking-lot","size":2147483647},`,
		"parking-lot links":    `"topology":{"generator":"parking-lot","size":1073741824},`,
		"ba switches":          `"topology":{"generator":"ba","size":3000000000,"m":2},`,
		"ba links":             `"topology":{"generator":"ba","size":600000000,"m":2},`,
		"ba links, wide m":     `"topology":{"generator":"ba","size":2000000,"m":1000},`,
		"waxman switches":      `"topology":{"generator":"waxman","size":3000000000,"seed":1},`,
		"waxman links":         `"topology":{"generator":"waxman","size":1073741825,"seed":1},`,
		"explicit switches":    `"topology":{"switches":3000000000},`,
		"default line":         `"switches":3000000000,`,
	}
	for name, topo := range cases {
		_, err := Parse(strings.NewReader(`{` + topo + `"trunk_delay":"10ms","buffer":20,"conns":[{"src":0,"dst":1}]}`))
		if err == nil || !strings.Contains(err.Error(), "a graph is limited to") || !strings.Contains(err.Error(), "is too many") {
			t.Errorf("%s: got %v, want the size-limit error", name, err)
		}
	}
}

// TestGoldenScenarioFiles pins every shipped scenario to the canonical
// encoding: Decode∘Encode must reproduce the file byte for byte, and
// each file must parse into a compilable configuration.
func TestGoldenScenarioFiles(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("expected at least 5 shipped scenarios, found %d", len(files))
	}
	for _, p := range files {
		t.Run(filepath.Base(p), func(t *testing.T) {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := Canonical(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, canon) {
				t.Errorf("%s is not in canonical form; run it through scenario.Canonical", p)
			}
			// Canonicalizing twice must be a fixed point.
			again, err := Canonical(canon)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, again) {
				t.Error("Canonical is not idempotent")
			}
			cfg, err := Parse(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cfg.CompileTopology(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEncodeStable asserts the canonical encoder's output is
// deterministic across calls.
func TestEncodeStable(t *testing.T) {
	f, err := Decode(strings.NewReader(twoWayJSON))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := f.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Encode is not deterministic")
	}
	if a.Len() == 0 || a.Bytes()[a.Len()-1] != '\n' {
		t.Fatal("Encode must end with a newline")
	}
}

func TestParseConnOptions(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,
	       "conns":[{"src":0,"dst":1,"reno":true,"delayed_ack":true,
	                 "pace":"80ms","extra_delay":"100ms","max_wnd":8}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Conns[0]
	if !c.Reno || !c.DelayedAck || c.Pace != 80*time.Millisecond ||
		c.ExtraDelay != 100*time.Millisecond || c.MaxWnd != 8 {
		t.Fatalf("conn = %+v", c)
	}
}

func TestParseDefaults(t *testing.T) {
	j := `{"trunk_delay":"1s","buffer":20,"conns":[{"src":0,"dst":1}]}`
	cfg, err := Parse(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Warmup != 100*time.Second || cfg.Duration != 600*time.Second {
		t.Fatalf("default warmup/duration = %v/%v", cfg.Warmup, cfg.Duration)
	}
	if cfg.AccessDelay != core.DefaultAccessDelay {
		t.Fatalf("access delay = %v", cfg.AccessDelay)
	}
	if cfg.HostProcessing != core.DefaultHostProcessing {
		t.Fatalf("host processing = %v", cfg.HostProcessing)
	}
}

func TestParseBadConnDurations(t *testing.T) {
	for name, j := range map[string]string{
		"bad pace":        `{"trunk_delay":"1s","buffer":20,"conns":[{"src":0,"dst":1,"pace":"x"}]}`,
		"bad extra delay": `{"trunk_delay":"1s","buffer":20,"conns":[{"src":0,"dst":1,"extra_delay":"x"}]}`,
		"bad start":       `{"trunk_delay":"1s","buffer":20,"conns":[{"src":0,"dst":1,"start":"x"}]}`,
	} {
		if _, err := Parse(strings.NewReader(j)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing trunk_delay": `{"buffer":20,"conns":[{"src":0,"dst":1}]}`,
		"bad duration":        `{"trunk_delay":"fast","buffer":20,"conns":[{"src":0,"dst":1}]}`,
		"negative duration":   `{"trunk_delay":"-1s","buffer":20,"conns":[{"src":0,"dst":1}]}`,
		"no conns":            `{"trunk_delay":"1s","buffer":20,"conns":[]}`,
		"bad discard":         `{"trunk_delay":"1s","buffer":20,"discard":"coin-flip","conns":[{"src":0,"dst":1}]}`,
		"bad discipline":      `{"trunk_delay":"1s","buffer":20,"discipline":"lifo","conns":[{"src":0,"dst":1}]}`,
		"unknown field":       `{"trunk_delay":"1s","buffer":20,"bufers":3,"conns":[{"src":0,"dst":1}]}`,
		"not json":            `trunk_delay: 1s`,
	}
	for name, j := range cases {
		if _, err := Parse(strings.NewReader(j)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestDecodeRejectsAllUnknownFields pins the strict-decode contract:
// every unknown key in the document is reported at once, each with its
// full path, not just the first one encoding/json would stop at.
func TestDecodeRejectsAllUnknownFields(t *testing.T) {
	in := `{
  "trunk_delay": "10ms",
  "bufer": 20,
  "topology": {
    "generator": "chain",
    "size": 3,
    "colour": "red"
  },
  "conns": [
    {"src": 0, "dst": 1},
    {"src": 1, "dst": 0, "typo_field": true}
  ],
  "extra_top": 1
}`
	_, err := Decode(strings.NewReader(in))
	if err == nil {
		t.Fatal("strict decode accepted unknown fields")
	}
	for _, path := range []string{
		`"bufer"`, `"extra_top"`, `"topology.colour"`, `"conns[1].typo_field"`,
	} {
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error does not name %s:\n%v", path, err)
		}
	}
	if strings.Contains(err.Error(), `"trunk_delay"`) {
		t.Errorf("error names a known field:\n%v", err)
	}
}

// TestDecodeUnknownFieldsInNestedLists covers deep paths through the
// explicit-topology lists.
func TestDecodeUnknownFieldsInNestedLists(t *testing.T) {
	in := `{
  "trunk_delay": "10ms",
  "topology": {
    "switches": 2,
    "links": [{"a": 0, "b": 1, "bandwith": 50000}],
    "hosts": [{"switch": 0}, {"swich": 1}]
  },
  "conns": [{"src": 0, "dst": 1}]
}`
	_, err := Decode(strings.NewReader(in))
	if err == nil {
		t.Fatal("strict decode accepted unknown fields")
	}
	for _, path := range []string{`"topology.links[0].bandwith"`, `"topology.hosts[1].swich"`} {
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error does not name %s:\n%v", path, err)
		}
	}
}

// TestDecodeLenient accepts the same document, returns the ignored
// paths in sorted order, and still parses to a runnable config.
func TestDecodeLenient(t *testing.T) {
	in := `{
  "trunk_delay": "10ms",
  "bufer": 20,
  "conns": [{"src": 0, "dst": 1, "typo_field": true}]
}`
	f, unknown, err := DecodeLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bufer", "conns[0].typo_field"}
	if len(unknown) != len(want) || unknown[0] != want[0] || unknown[1] != want[1] {
		t.Fatalf("unknown = %v, want %v", unknown, want)
	}
	if f.TrunkDelay != "10ms" {
		t.Fatalf("lenient decode lost known fields: %+v", f)
	}
	cfg, unknown2, err := ParseLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown2) != 2 {
		t.Fatalf("ParseLenient unknown = %v", unknown2)
	}
	if cfg.TrunkDelay != 10*time.Millisecond || len(cfg.Conns) != 1 {
		t.Fatalf("ParseLenient cfg = %+v", cfg)
	}
	// Strict Parse must reject the same bytes.
	if _, err := Parse(strings.NewReader(in)); err == nil {
		t.Fatal("strict Parse accepted unknown fields")
	}
	// Leniency stops at the removed "ack_size_zero": it is an error, not
	// a warning, with the same hint the strict path gives.
	removed := strings.Replace(in, `"bufer": 20`, `"ack_size_zero": true`, 1)
	_, strictErr := Decode(strings.NewReader(removed))
	_, _, err = DecodeLenient(strings.NewReader(removed))
	if err == nil || strictErr == nil || err.Error() != strictErr.Error() {
		t.Fatalf("lenient ack_size_zero error = %v, want the strict path's %v", err, strictErr)
	}
}

// TestRouteOverridesRemoved: routes are the compiler's shortest paths
// only. A file that still carries "topology.routes" is refused by name,
// strictly and leniently — run on shortest paths instead, it would not
// be the network it describes.
func TestRouteOverridesRemoved(t *testing.T) {
	j := `{"trunk_delay":"10ms","buffer":20,
	       "topology":{"generator":"chain","size":3,"routes":[{"at":0,"dst":2,"via":1}]},
	       "conns":[{"src":0,"dst":2}]}`
	_, err := Parse(strings.NewReader(j))
	if err == nil || !strings.Contains(err.Error(), `"topology.routes"`) {
		t.Fatalf("strict parse: err = %v, want one naming \"topology.routes\"", err)
	}
	if _, _, lerr := ParseLenient(strings.NewReader(j)); lerr == nil || lerr.Error() != err.Error() {
		t.Fatalf("lenient parse: err = %v, want the strict path's %v", lerr, err)
	}
}

func TestParseShards(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{
		"trunk_delay": "10ms", "buffer": 20, "shards": 2,
		"conns": [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 2 {
		t.Fatalf("Shards = %d", cfg.Shards)
	}

	cfg, err = Parse(strings.NewReader(`{
		"trunk_delay": "10ms", "buffer": 20,
		"topology": {"generator": "chain", "size": 4},
		"regions": [[0, 1], [2, 3]],
		"conns": [{"src": 0, "dst": 3}, {"src": 3, "dst": 0}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Regions) != 2 {
		t.Fatalf("Regions = %v", cfg.Regions)
	}
	// A sharded scenario file runs and matches its serial self.
	serial := cfg
	serial.Regions = nil
	if got, want := core.Run(cfg).Events, core.Run(serial).Events; got != want {
		t.Fatalf("sharded scenario ran %d events, serial %d", got, want)
	}
}

func TestParseShardsErrors(t *testing.T) {
	for name, body := range map[string]string{
		"negative-shards": `{"trunk_delay": "10ms", "buffer": 20, "shards": -1,
			"conns": [{"src": 0, "dst": 1}]}`,
		"shards-regions-conflict": `{"trunk_delay": "10ms", "buffer": 20, "shards": 3,
			"regions": [[0], [1]],
			"conns": [{"src": 0, "dst": 1}]}`,
		"regions-uncovered": `{"trunk_delay": "10ms", "buffer": 20,
			"topology": {"generator": "chain", "size": 4},
			"regions": [[0, 1], [2]],
			"conns": [{"src": 0, "dst": 3}]}`,
	} {
		if _, err := Parse(strings.NewReader(body)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestEncodeShardsRoundTrip(t *testing.T) {
	in := `{
  "trunk_delay": "10ms",
  "buffer": 20,
  "conns": [
    {
      "src": 0,
      "dst": 1
    }
  ],
  "shards": 2,
  "regions": [
    [
      0
    ],
    [
      1
    ]
  ]
}
`
	f, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != in {
		t.Fatalf("round trip changed bytes:\n%s", buf.String())
	}
}
