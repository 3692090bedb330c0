package scenario

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

// The canonical form of a scenario exercising every new object: a
// scenario-wide queue, a per-link behavior override, and a non-TCP
// source. Decode∘Encode must reproduce it byte for byte.
const extensionsGolden = `{
  "topology": {
    "switches": 2,
    "links": [
      {
        "a": 0,
        "b": 1,
        "queue": {
          "policy": "fair-queue"
        },
        "behavior": {
          "good_to_bad": 0.01,
          "bad_to_good": 0.3,
          "bad_loss": 0.5
        }
      }
    ],
    "hosts": [
      {
        "switch": 0
      },
      {
        "switch": 1
      }
    ]
  },
  "trunk_delay": "50ms",
  "buffer": 20,
  "queue": {
    "policy": "red",
    "min_th": 5,
    "max_th": 15,
    "max_p": 0.02,
    "wq": 0.002
  },
  "behavior": {
    "loss": 0.01,
    "jitter": "2ms"
  },
  "conns": [
    {
      "src": 0,
      "dst": 1,
      "start": "0s"
    },
    {
      "src": 1,
      "dst": 0,
      "start": "0s",
      "source": {
        "kind": "onoff",
        "rate": 500000,
        "size": 1000,
        "on_mean": "500ms",
        "off_mean": "500ms"
      }
    }
  ]
}
`

// TestExtensionsGoldenFixedPoint pins the canonical encoding of the
// queue/behavior/source objects: Decode then Encode is the identity on
// the golden document, and Canonical is idempotent on it.
func TestExtensionsGoldenFixedPoint(t *testing.T) {
	f, err := Decode(strings.NewReader(extensionsGolden))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != extensionsGolden {
		t.Errorf("Decode∘Encode is not the identity on the golden form:\n--- got ---\n%s--- want ---\n%s",
			buf.String(), extensionsGolden)
	}
	canon, err := Canonical([]byte(extensionsGolden))
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != extensionsGolden {
		t.Error("Canonical changed an already-canonical document")
	}
}

// TestExtensionsConfigConversion checks the parsed golden document
// lands in the right core.Config fields.
func TestExtensionsConfigConversion(t *testing.T) {
	cfg, err := Parse(strings.NewReader(extensionsGolden))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Queue == nil || cfg.Queue.Policy != link.PolicyRED || cfg.Queue.MinTh != 5 || cfg.Queue.MaxTh != 15 {
		t.Fatalf("Queue = %+v, want red min=5 max=15", cfg.Queue)
	}
	if cfg.Behavior == nil || cfg.Behavior.Loss != 0.01 || cfg.Behavior.Jitter != 2*time.Millisecond {
		t.Fatalf("Behavior = %+v, want loss=0.01 jitter=2ms", cfg.Behavior)
	}
	if qs := cfg.LinkQueue[0]; qs == nil || qs.Policy != link.PolicyFairQueue {
		t.Fatalf("LinkQueue[0] = %+v, want fair-queue", qs)
	}
	if bs := cfg.LinkBehavior[0]; bs == nil || bs.GoodToBad != 0.01 || bs.BadToGood != 0.3 || bs.BadLoss != 0.5 {
		t.Fatalf("LinkBehavior[0] = %+v, want ge=0.01/0.3/0.5", bs)
	}
	if cfg.Conns[0].Source != nil {
		t.Fatalf("conns[0].Source = %+v, want nil (TCP)", cfg.Conns[0].Source)
	}
	src := cfg.Conns[1].Source
	if src == nil || src.Kind != core.SourceOnOff || src.Rate != 500_000 || src.Size != 1000 ||
		src.OnMean != 500*time.Millisecond || src.OffMean != 500*time.Millisecond {
		t.Fatalf("conns[1].Source = %+v, want onoff 500kb/s 1000B 500ms/500ms", src)
	}
}

// TestExtensionsUnknownFieldPaths pins the dotted-path unknown-field
// reporting inside the new nested objects.
func TestExtensionsUnknownFieldPaths(t *testing.T) {
	in := `{
  "trunk_delay": "10ms",
  "queue": {"policy": "red", "min_thh": 5},
  "behavior": {"loss": 0.01, "jittre": "2ms"},
  "topology": {
    "switches": 2,
    "links": [{"a": 0, "b": 1, "queue": {"polucy": "red"}}],
    "hosts": [{"switch": 0}, {"switch": 1}]
  },
  "conns": [{"src": 0, "dst": 1, "source": {"kind": "cbr", "rte": 1000}}]
}`
	_, err := Decode(strings.NewReader(in))
	if err == nil {
		t.Fatal("strict decode accepted unknown fields in nested objects")
	}
	for _, path := range []string{
		`"queue.min_thh"`, `"behavior.jittre"`,
		`"topology.links[0].queue.polucy"`, `"conns[0].source.rte"`,
	} {
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error does not name %s:\n%v", path, err)
		}
	}
}

// TestExtensionsParseErrors covers the validation added with the new
// objects: surface conflicts, bad parameters, and bad source kinds.
func TestExtensionsParseErrors(t *testing.T) {
	cases := map[string]string{
		"queue plus legacy discard": `{"trunk_delay":"1s","buffer":20,"discard":"random-drop",
			"queue":{"policy":"red"},"conns":[{"src":0,"dst":1}]}`,
		"queue plus legacy discipline": `{"trunk_delay":"1s","buffer":20,"discipline":"fair-queue",
			"queue":{"policy":"drop-tail"},"conns":[{"src":0,"dst":1}]}`,
		"unknown queue policy": `{"trunk_delay":"1s","buffer":20,
			"queue":{"policy":"lifo"},"conns":[{"src":0,"dst":1}]}`,
		"red thresholds on drop-tail": `{"trunk_delay":"1s","buffer":20,
			"queue":{"policy":"drop-tail","min_th":5},"conns":[{"src":0,"dst":1}]}`,
		"inverted red thresholds": `{"trunk_delay":"1s","buffer":20,
			"queue":{"policy":"red","min_th":15,"max_th":5},"conns":[{"src":0,"dst":1}]}`,
		"both loss models": `{"trunk_delay":"1s","buffer":20,
			"behavior":{"loss":0.1,"good_to_bad":0.1,"bad_to_good":0.1,"bad_loss":0.5},
			"conns":[{"src":0,"dst":1}]}`,
		"reorder without jitter": `{"trunk_delay":"1s","buffer":20,
			"behavior":{"reorder":true},"conns":[{"src":0,"dst":1}]}`,
		"bad jitter duration": `{"trunk_delay":"1s","buffer":20,
			"behavior":{"jitter":"fast"},"conns":[{"src":0,"dst":1}]}`,
		"missing trace file": `{"trunk_delay":"1s","buffer":20,
			"behavior":{"rate_trace":"no/such/file.rt"},"conns":[{"src":0,"dst":1}]}`,
		"source without kind": `{"trunk_delay":"1s","buffer":20,
			"conns":[{"src":0,"dst":1,"source":{"rate":1000}}]}`,
		"unknown source kind": `{"trunk_delay":"1s","buffer":20,
			"conns":[{"src":0,"dst":1,"source":{"kind":"poisson","rate":1000}}]}`,
		"cbr without rate": `{"trunk_delay":"1s","buffer":20,
			"conns":[{"src":0,"dst":1,"source":{"kind":"cbr"}}]}`,
		"cbr with onoff means": `{"trunk_delay":"1s","buffer":20,
			"conns":[{"src":0,"dst":1,"source":{"kind":"cbr","rate":1000,"on_mean":"1s"}}]}`,
		"onoff without means": `{"trunk_delay":"1s","buffer":20,
			"conns":[{"src":0,"dst":1,"source":{"kind":"onoff","rate":1000}}]}`,
	}
	for name, j := range cases {
		if _, err := Parse(strings.NewReader(j)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestLegacyStringsStillParse pins the discard/discipline sugar as
// pure spelling on a file users actually have: the shipped
// fairqueue-twoway.json, which uses the old string, parses to exactly
// the Config its structured "queue" spelling parses to.
func TestLegacyStringsStillParse(t *testing.T) {
	shipped, err := os.ReadFile("../../scenarios/fairqueue-twoway.json")
	if err != nil {
		t.Fatal(err)
	}
	legacy := string(shipped)
	modern := strings.Replace(legacy, `"discipline": "fair-queue"`, `"queue": {"policy": "fair-queue"}`, 1)
	if modern == legacy {
		t.Fatal("shipped fairqueue-twoway.json no longer uses the legacy string; pick another file")
	}
	old, err := Parse(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Parse(strings.NewReader(modern))
	if err != nil {
		t.Fatal(err)
	}
	if old.Queue == nil || !reflect.DeepEqual(old, cur) {
		t.Errorf("legacy spelling parsed to a different Config:\n%+v\nvs\n%+v", old, cur)
	}
}
