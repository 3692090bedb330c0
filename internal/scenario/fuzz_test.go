package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzMaxSize caps the topology sizes the fuzz target lets through to
// Config: the size limit refuses what cannot be represented, but a
// representable 10⁸-switch chain is still gigabytes, and a ba graph has
// up to size²/4 links.
const fuzzMaxSize = 512

// FuzzScenarioParse feeds arbitrary bytes to the scenario reader, seeded
// with every shipped scenario. Nothing may panic — strict or lenient,
// decode, conversion, topology resolution. A file that decodes must
// re-encode to a canonical form that is a fixed point of decode∘encode,
// and one that converts must also validate as a core.Config would be
// built from it. Inputs are capped at 4 KB (connections and links are
// JSON objects, so that bounds their number); files naming a rate-trace
// path, which would open it, are skipped.
func FuzzScenarioParse(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped scenarios to seed from: %v", err)
	}
	for _, p := range files {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range []string{
		``, `{}`, `[]`, `null`, `{"trunk_delay":"10ms","conns":[{"src":0,"dst":1}]}`,
		`{"trunk_delay":"10ms","buffer":20,"topology":{"generator":"ba","size":64,"m":2,"seed":7},"conns":[{"src":0,"dst":63}],"shards":2,
		  "events":[{"t":"4s","link":3,"bandwidth":25000},{"t":"6s","link":3,"down":true}]}`,
		`{"trunk_delay":"10ms","topology":{"generator":"waxman","size":40,"seed":3,"hosts":[{"switch":0},{"switch":39}]},
		  "queue":{"policy":"red","min_th":5,"max_th":15},"behavior":{"loss":0.01,"jitter":"2ms"},
		  "conns":[{"src":0,"dst":1,"source":{"kind":"onoff","rate":20000,"on_mean":"1s","off_mean":"1s"}}]}`,
		`{"trunk_delay":"10ms","topology":{"switches":3,"links":[{"a":0,"b":1,"delay":"5ms"},{"a":1,"b":2,"queue":{"policy":"fair-queue"}}]},
		  "regions":[[0],[1,2]],"conns":[{"src":0,"dst":2,"start":"1s","pace":"1ms"}]}`,
		`{"topology":{"generator":"chain","size":3000000000},"trunk_delay":"10ms","conns":[{"src":0,"dst":1}]}`,
		`{"switches":-1,"trunk_delay":"-10ms","ack_size":-5,"conns":[{"src":-1,"dst":99}],"bogus":{"nested":[1,2]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 || bytes.Contains(data, []byte("rate_trace")) {
			t.Skip()
		}
		file, _, err := DecodeLenient(bytes.NewReader(data))
		if _, strictErr := Decode(bytes.NewReader(data)); err != nil && strictErr == nil {
			t.Fatalf("strict decode accepted what lenient decode refused: %v", err)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := file.Encode(&first); err != nil {
			t.Fatalf("re-encode of a decoded file: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of the canonical form: %v\n%s", err, first.Bytes())
		}
		if err := again.Encode(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form is not a fixed point (%v):\n%s\nthen\n%s", err, first.Bytes(), second.Bytes())
		}
		if tp := file.Topology; file.Switches > fuzzMaxSize || tp != nil && (tp.Size > fuzzMaxSize || tp.Switches > fuzzMaxSize) {
			return
		}
		cfg, err := file.Config()
		if err != nil {
			return
		}
		if _, err := cfg.ResolveTopology(); err != nil {
			t.Fatalf("Config accepted a topology that does not resolve: %v", err)
		}
	})
}
