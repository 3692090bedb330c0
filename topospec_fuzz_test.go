package tahoedyn

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/topology"
)

// FuzzParseTopoSpec feeds arbitrary strings to the -topology flag
// parser. It may refuse any of them but never panic, and what it accepts
// is a graph Resolve accepts whose canonical connections name hosts the
// graph has. ParseTopoSpec runs the generator, so inputs carrying a
// number above 512 are skipped: a fuzzer that finds "chain:900000000"
// has found a slow test, not a defect.
func FuzzParseTopoSpec(f *testing.F) {
	for _, seed := range []string{
		"", "dumbbell", "chain:4", "parking-lot:3", "ba:64:2:7", "waxman:32:5",
		"torus", "chain:1", "chain:x", "dumbbell:2", "ba:64:64:1", "ba:64:2:1:9",
		"waxman:1:1", "chain:-3", "ba:8:1:-9", "chain:+5", "chain:", ":", "ba:::",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, tok := range strings.Split(spec, ":") {
			if v, err := strconv.ParseInt(tok, 10, 64); err == nil && v > 512 {
				t.Skip("generator size above the fuzz budget")
			}
		}
		g, conns, err := ParseTopoSpec(spec)
		if err != nil {
			return
		}
		hosts := 2 // a nil graph is the default dumbbell
		if g != nil {
			sk, err := g.Resolve(topology.Defaults{Bandwidth: 50_000, Delay: 10 * time.Millisecond, Buffer: 20})
			if err != nil {
				t.Fatalf("%q: accepted, but its graph does not resolve: %v", spec, err)
			}
			hosts = sk.NumHosts()
		}
		if len(conns) < 2 {
			t.Fatalf("%q: %d connections, want at least the two-way pair", spec, len(conns))
		}
		for i, c := range conns {
			if c.SrcHost < 0 || c.SrcHost >= hosts || c.DstHost < 0 || c.DstHost >= hosts || c.SrcHost == c.DstHost {
				t.Fatalf("%q: connection %d runs h%d -> h%d on a graph of %d hosts", spec, i, c.SrcHost, c.DstHost, hosts)
			}
		}
	})
}
