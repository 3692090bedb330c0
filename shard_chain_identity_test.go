package tahoedyn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// chainShardConfig rebuilds, without the bench module, the scenario its
// chain1k-shards2 generator emits at 1/20 size (bench/gen.go
// genChainShards, same seed mixing and the same draws): chain:51 with
// 500 one-hop connections in random direction and order, 200 kb/s
// trunks of 10 ms and 20 packets, 7 s with a 2 s warm-up, everything else
// the paper's defaults as scenario.Parse fills them in.
func chainShardConfig(seed int64) Config {
	mix := func(stream uint64) int64 { // splitmix64 finalizer, as bench/gen.go
		z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return int64(z >> 1)
	}
	const switches, nConns = 51, 500
	g := ChainTopology(switches)
	cfg := Dumbbell(10*time.Millisecond, 20)
	cfg.Topology = &g
	cfg.TrunkBandwidth = 200_000
	cfg.Seed = mix(1)
	cfg.Warmup, cfg.Duration = 2*time.Second, 7*time.Second
	rng := rand.New(rand.NewSource(mix(0)))
	cfg.Conns = make([]ConnSpec, nConns)
	for k := range cfg.Conns {
		t := k % (switches - 1)
		cfg.Conns[k] = ConnSpec{SrcHost: t, DstHost: t + 1, Start: -1}
		if rng.Intn(2) == 0 {
			cfg.Conns[k] = ConnSpec{SrcHost: t + 1, DstHost: t, Start: -1}
		}
	}
	rng.Shuffle(nConns, func(i, j int) { cfg.Conns[i], cfg.Conns[j] = cfg.Conns[j], cfg.Conns[i] })
	return cfg
}

// firstResultDiff names the first field of two Results that differs,
// leaving out what legitimately does (the Config carries the shard
// count, the compiled topology is a separate object).
func firstResultDiff(a, b *Result) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if name == "Cfg" || name == "Topo" {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return name
		}
	}
	return ""
}

// chainShardDefect lists the (seed, shards) cells of
// TestShardIdentityChainOneHop that do not hold today: the open
// shard-identity defect of ROADMAP's first item, reproduced. The event
// count agrees in every one of them — which is why digests of events,
// deliveries and drops never saw it — but the series do not. Earliest
// divergence, seed 5 on two shards: connections 246 (h25 → h26, its
// sender across the sw25–sw26 cut) and 372 (h27 → h26, local) both time
// out on the 3.5 s tick of the 500 ms timer, their retransmissions reach
// switch 26 at the same instant, 3.5305 s, and port sw26->h27 enqueues
// 246 first serially and 372 first on two shards: a packet injected
// across the cut ties with a local one and the tie breaks the other way.
// From there queue series, ACK arrivals and windows drift apart.
// A cell that starts to hold, or a new one that stops, fails the test:
// the fix deletes this table.
var chainShardDefect = map[int64][]int{4: {4}, 5: {2, 4}, 8: {4}, 9: {4}, 11: {2, 4}}

// TestShardIdentityChainOneHop holds the whole Result — Events, every
// series, every log — identical at 1, 2 and 4 shards, seeds 1–12, on the
// input where the benchmark's first findings recorded two shards running
// two events short of serial. The facade suites above compare a digest's
// worth of fields; this one compares them all, and so finds what they
// could not (chainShardDefect).
func TestShardIdentityChainOneHop(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := chainShardConfig(seed)
			serial := runShards(cfg, 1)
			for _, k := range []int{2, 4} {
				sharded := runShards(cfg, k)
				field := firstResultDiff(serial, sharded)
				known := slices.Contains(chainShardDefect[seed], k)
				switch {
				case field != "" && !known:
					t.Errorf("shards=%d: Result.%s differs from serial (events %d vs %d)", k, field, sharded.Events, serial.Events)
				case field == "" && known:
					t.Errorf("shards=%d: identical to serial, but listed in chainShardDefect", k)
				case field != "":
					t.Logf("shards=%d: Result.%s differs from serial — the known defect", k, field)
				}
			}
		})
	}
}
