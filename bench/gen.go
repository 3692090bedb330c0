package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"tahoedyn/internal/scenario"
)

// runSpec is one Build→Finish operation of a workload: the scenario
// JSON the program under test receives, plus the harness-side switches
// that have no JSON surface (the CLIs set them from flags).
type runSpec struct {
	label string
	json  []byte
	// gate turns per-trunk and per-connection measurement off
	// (Config.MeasureTrunks/MeasureConns empty), as the scale benches do.
	gate bool
	// store traces the full packet lifecycle into an in-memory TOBC
	// store with the online invariant checker on, then opens and
	// queries it.
	store bool
	// analyse runs the sweep's analysis on the Result.
	analyse bool
}

// mix derives an independent sub-seed from (seed, stream) with a
// splitmix64 step, so every run of a workload gets its own stream and
// neighbouring seeds do not share inputs.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // non-negative: scenario seeds print as plain integers
}

func scaleDur(d time.Duration, scale float64) string {
	return time.Duration(float64(d) * scale).Round(time.Millisecond).String()
}

func scaleInt(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 2
}

func encode(f *scenario.File) []byte {
	var b bytes.Buffer
	if err := f.Encode(&b); err != nil {
		panic(err) // a File built here always marshals
	}
	return b.Bytes()
}

// twoWay is the paper's §4 dumbbell with one connection each way.
func twoWay(tau string, buffer int, seed int64, warmup, duration string) *scenario.File {
	return &scenario.File{
		TrunkDelay: tau,
		Buffer:     buffer,
		Conns:      []scenario.Conn{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
		Seed:       seed,
		Warmup:     warmup,
		Duration:   duration,
	}
}

// genPaperTwoWay: two runs each of the Fig. 4–5 out-of-phase
// configuration (τ = 10 ms) and the Fig. 6–7 in-phase one (τ = 1 s).
// 10 000 simulated seconds keeps every queue series inside the capacity
// core reserves for it (2^19 points at most), so whether a series
// regrows — 34 MB a time — does not hang on the seed.
func genPaperTwoWay(seed int64, scale float64) []runSpec {
	warm, dur := scaleDur(200*time.Second, scale), scaleDur(10_000*time.Second, scale)
	var runs []runSpec
	for i, tau := range []string{"10ms", "10ms", "1s", "1s"} {
		f := twoWay(tau, 20, mix(seed, uint64(i)), warm, dur)
		runs = append(runs, runSpec{label: fmt.Sprintf("tau=%s/%d", tau, i%2), json: encode(f)})
	}
	return runs
}

// oneHopConns spreads n one-hop connections evenly over the trunks of a
// chain — every trunk carries the same number, as in the legacy scale
// benches — and lets the seed pick each one's direction and its place
// in the connection order.
func oneHopConns(rng *rand.Rand, n, switches int) []scenario.Conn {
	conns := make([]scenario.Conn, n)
	for k := range conns {
		t := k % (switches - 1)
		conns[k] = scenario.Conn{Src: t, Dst: t + 1}
		if rng.Intn(2) == 0 {
			conns[k] = scenario.Conn{Src: t + 1, Dst: t}
		}
	}
	rng.Shuffle(n, func(i, j int) { conns[i], conns[j] = conns[j], conns[i] })
	return conns
}

func genFlows100k(seed int64, scale float64) []runSpec {
	const switches = 64
	f := &scenario.File{
		Topology:    &scenario.Topology{Generator: "chain", Size: switches},
		TrunkDelay:  "1ms",
		Buffer:      20,
		Seed:        mix(seed, 1),
		StartSpread: "2s",
		Warmup:      "20s",
		Duration:    "120s",
		Conns:       oneHopConns(rand.New(rand.NewSource(mix(seed, 0))), scaleInt(100_000, scale), switches),
	}
	return []runSpec{{label: "chain64", json: encode(f), gate: true}}
}

// genMeshBA: the graph is one fixed draw of BarabasiAlbert(n, 2); the
// seed places the flows. Route compile and the link events' partial
// recompute cost what the graph's shape makes them cost — set-up
// allocation moved by ±20 % between graph draws — so a seeded graph
// would bury a set-up change under input variation.
func genMeshBA(seed int64, scale float64) []runSpec {
	n := scaleInt(2048, scale)
	const m, graphSeed = 2, 1
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	f := &scenario.File{
		Topology:   &scenario.Topology{Generator: "ba", Size: n, M: m, Seed: graphSeed},
		TrunkDelay: "2ms",
		Buffer:     20,
		Seed:       mix(seed, 2),
		Warmup:     "2s",
		Duration:   "10s",
	}
	for k := scaleInt(1000, scale); k > 0; k-- {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		f.Conns = append(f.Conns, scenario.Conn{Src: src, Dst: dst})
	}
	// The last link BarabasiAlbert adds joins the newest switch to one
	// of its m targets: never a bridge for m >= 2, so it can go down.
	last := m*(n-m) - 1
	f.Events = []scenario.Event{
		{T: "4s", Link: last, Bandwidth: 25_000},
		{T: "6s", Link: last, Down: true},
		{T: "8s", Link: last, Bandwidth: 100_000}, // restores the link at its second new rate
	}
	return []runSpec{{label: fmt.Sprintf("ba%d", n), json: encode(f), gate: true}}
}

func genChainShards(seed int64, scale float64) []runSpec {
	n := scaleInt(1024, scale)
	f := &scenario.File{
		Topology:       &scenario.Topology{Generator: "chain", Size: n},
		TrunkBandwidth: 200_000,
		TrunkDelay:     "10ms",
		Buffer:         20,
		Shards:         2,
		Seed:           mix(seed, 1),
		Warmup:         "2s",
		Duration:       "7s",
		Conns:          oneHopConns(rand.New(rand.NewSource(mix(seed, 0))), scaleInt(10_000, scale), n),
	}
	return []runSpec{{label: fmt.Sprintf("chain%d", n), json: encode(f), gate: true}}
}

func genTracedRED(seed int64, scale float64) []runSpec {
	const hops = 3
	var runs []runSpec
	for i := 0; i < 8; i++ {
		f := &scenario.File{
			Topology:   &scenario.Topology{Generator: "parking-lot", Size: hops},
			TrunkDelay: "10ms",
			Buffer:     20,
			Queue:      &scenario.Queue{Policy: "red", MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.01},
			Behavior:   &scenario.Behavior{Loss: 0.001, Jitter: "2ms"},
			Seed:       mix(seed, uint64(i)),
			Warmup:     scaleDur(50*time.Second, scale),
			Duration:   scaleDur(625*time.Second, scale),
			// tahoe-sweep's parking-lot traffic: one long two-way pair across
			// every hop plus one cross connection per hop.
			Conns: []scenario.Conn{{Src: 0, Dst: hops}, {Src: hops, Dst: 0}},
		}
		for h := 0; h < hops; h++ {
			f.Conns = append(f.Conns, scenario.Conn{Src: h, Dst: h + 1})
		}
		// Series measurement is gated off: the workload is about the tap
		// and the store. Eight 10 MB stores rather than one of 80 MB: the
		// store reader reallocates its chunk buffer whenever a chunk is
		// larger than any before it, which made a single store's query
		// allocation swing ±9 % from seed to seed (four stores' ±6 %, with
		// the live heap on two levels); eight average it to ±3 %.
		runs = append(runs, runSpec{label: fmt.Sprintf("parking-lot3/%d", i), json: encode(f), store: true, gate: true})
	}
	return runs
}

func genSweepGrid(seed int64, scale float64) []runSpec {
	warm, dur := scaleDur(200*time.Second, scale), scaleDur(800*time.Second, scale)
	var runs []runSpec
	for s := 0; s < 8; s++ {
		for _, tau := range []string{"10ms", "100ms", "300ms", "1s"} {
			for _, b := range []int{10, 20, 40, 80} {
				f := twoWay(tau, b, mix(seed, uint64(s)), warm, dur)
				runs = append(runs, runSpec{
					label:   fmt.Sprintf("seed%d/tau=%s/B=%d", s, tau, b),
					json:    encode(f),
					analyse: true,
				})
			}
		}
	}
	return runs
}
