package topology_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tahoedyn/internal/scenario"
	"tahoedyn/internal/topology"
)

// TestAddressOrderIsIdentityOnChains holds the locality order to the
// identity where the paper's runs live: on chains of several lengths, on
// parking lots, on the dumbbell and on every shipped scenario, host h's
// address is h, so their packets carry the IDs (h+1) they always have.
// A scale-free tree is the control: its order is not the identity, or
// the check could not tell the two apart.
func TestAddressOrderIsIdentityOnChains(t *testing.T) {
	isIdentity := func(sk *topology.Skeleton) (int, bool) {
		for h := range sk.NumHosts() {
			if sk.Addr(h) != h {
				return h, false
			}
		}
		return 0, true
	}
	def := topology.Defaults{Bandwidth: 50_000, Delay: 10 * time.Millisecond}
	graphs := map[string]topology.Graph{"dumbbell": topology.Dumbbell()}
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		graphs[fmt.Sprintf("chain-%d", n)] = topology.Chain(n)
	}
	for _, hops := range []int{1, 3, 10} {
		graphs[fmt.Sprintf("parking-lot-%d", hops)] = topology.ParkingLot(hops)
	}
	for name, g := range graphs {
		sk, err := g.Resolve(def)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h, ok := isIdentity(sk); !ok {
			t.Errorf("%s: host %d has address %d", name, h, sk.Addr(h))
		}
	}

	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("found %d shipped scenarios, want at least 5", len(files))
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := scenario.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sk, err := cfg.ResolveTopology()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if h, ok := isIdentity(sk); !ok {
			t.Errorf("%s: host %d has address %d", path, h, sk.Addr(h))
		}
	}

	sk, err := topology.BarabasiAlbert(64, 1, 1).Resolve(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := isIdentity(sk); ok {
		t.Error("BarabasiAlbert(64, 1, 1): the order is the identity too, so the check proves nothing")
	}
}
