package core

import (
	"testing"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/packet"
)

func TestGoodputSnapshotsAtWarmup(t *testing.T) {
	cfg := oneWayConfig(10*time.Millisecond, 2)
	cfg.Warmup = 50 * time.Second
	cfg.Duration = 150 * time.Second
	res := Run(cfg)
	for k := range res.Goodput {
		if res.Goodput[k] <= 0 {
			t.Fatalf("conn %d goodput = %d", k+1, res.Goodput[k])
		}
		if res.Goodput[k] >= res.Delivered[k] {
			t.Fatalf("conn %d goodput %d not smaller than total delivered %d",
				k+1, res.Goodput[k], res.Delivered[k])
		}
	}
	// The bottleneck carries ~12.5 data packets/s; the two connections'
	// goodput over 100 s must sum to roughly that.
	total := res.Goodput[0] + res.Goodput[1]
	if total < 1000 || total > 1350 {
		t.Fatalf("total goodput = %d, want ≈1250", total)
	}
}

func TestRandomDropScenarioRuns(t *testing.T) {
	cfg := oneWayConfig(10*time.Millisecond, 3)
	cfg.Queue = &link.QueueSpec{Policy: link.PolicyRandomDrop}
	cfg.Warmup = 50 * time.Second
	cfg.Duration = 250 * time.Second
	res := Run(cfg)
	if len(res.Drops) == 0 {
		t.Fatal("no drops in congested random-drop scenario")
	}
	if res.UtilForward() < 0.9 {
		t.Fatalf("utilization = %v", res.UtilForward())
	}
	// Determinism holds with the extra per-port RNGs.
	res2 := Run(cfg)
	if res2.Events != res.Events || len(res2.Drops) != len(res.Drops) {
		t.Fatal("random-drop runs are not reproducible")
	}
	// Unlike drop-tail, random drop sometimes evicts mid-queue packets,
	// so the run must differ from the drop-tail one.
	cfg.Queue = nil
	if tail := Run(cfg); tail.Events == res.Events && len(tail.Drops) == len(res.Drops) {
		t.Fatal("random-drop run is indistinguishable from drop-tail")
	}
}

func TestRenoConnectionInScenario(t *testing.T) {
	cfg := DumbbellConfig(10*time.Millisecond, 20)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, Reno: true, Start: -1},
		{SrcHost: 1, DstHost: 0, Reno: true, Start: -1},
	}
	cfg.Warmup = 100 * time.Second
	cfg.Duration = 400 * time.Second
	res := Run(cfg)
	var fastRtx, timeouts uint64
	for _, st := range res.SenderStats {
		fastRtx += st.FastRetransmits
		timeouts += st.Timeouts
	}
	if fastRtx == 0 {
		t.Fatal("Reno connections never fast-retransmitted")
	}
	if res.UtilForward() < 0.5 {
		t.Fatalf("Reno two-way utilization = %v", res.UtilForward())
	}
	// cwnd must never have been traced at 1 immediately after a dupack
	// collapse... weaker invariant: cwnd series max > 3 (recovery keeps
	// windows open).
	if res.Cwnd[0].Max(cfg.Warmup, cfg.Duration) <= 3 {
		t.Fatal("Reno window never opened")
	}
}

func TestExtraDelayLengthensRTT(t *testing.T) {
	base := DumbbellConfig(10*time.Millisecond, 20)
	base.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: 0}}
	base.Warmup = 20 * time.Second
	base.Duration = 120 * time.Second
	fast := Run(base)

	slow := base
	slow.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: 0, ExtraDelay: 500 * time.Millisecond}}
	slowRes := Run(slow)

	// The delayed connection's goodput must be strictly lower: same
	// bottleneck, much longer RTT during slow start and recovery.
	if slowRes.Goodput[0] >= fast.Goodput[0] {
		t.Fatalf("extra delay did not reduce goodput: %d vs %d",
			slowRes.Goodput[0], fast.Goodput[0])
	}
	if slowRes.Goodput[0] == 0 {
		t.Fatal("delayed connection starved completely")
	}
}

func TestMixedFixedAndAdaptiveConnections(t *testing.T) {
	cfg := DumbbellConfig(10*time.Millisecond, 0)
	cfg.Conns = []ConnSpec{
		{SrcHost: 0, DstHost: 1, FixedWnd: 10, Start: 0},
		{SrcHost: 1, DstHost: 0, MaxWnd: 12, Start: 0},
	}
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 120 * time.Second
	res := Run(cfg)
	if res.Goodput[0] == 0 || res.Goodput[1] == 0 {
		t.Fatalf("goodputs %v", res.Goodput)
	}
	if len(res.Drops) != 0 {
		t.Fatal("drops despite infinite buffers")
	}
}

func TestFourSwitchChainRouting(t *testing.T) {
	cfg := Config{
		Switches:   4,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     30,
		Seed:       1,
		Warmup:     20 * time.Second,
		Duration:   120 * time.Second,
		Conns: []ConnSpec{
			{SrcHost: 0, DstHost: 3, Start: 0}, // 3 hops
			{SrcHost: 3, DstHost: 0, Start: 0}, // 3 hops reverse
			{SrcHost: 1, DstHost: 2, Start: 0}, // middle hop only
		},
	}
	res := Run(cfg)
	for k, g := range res.Goodput {
		if g == 0 {
			t.Fatalf("conn %d starved on the chain", k+1)
		}
	}
	// The 3-hop connections' data crosses every trunk; the middle trunk
	// carries all three connections and must be the busiest.
	mid := res.TrunkUtil[1][0]
	if mid < res.TrunkUtil[0][0] || mid < res.TrunkUtil[2][0] {
		t.Fatalf("middle trunk not busiest: %v", res.TrunkUtil)
	}
	// Unlike the single-bottleneck dumbbell, the chain *can* drop ACKs:
	// ACKs compressed at one hop arrive clumped at the next, where they
	// can overflow a queue. Both kinds must be accounted for, and the
	// connections must survive them (checked via goodput above).
	ackDrops, dataDrops := 0, 0
	for _, d := range res.Drops {
		if d.Kind == packet.Ack {
			ackDrops++
		} else {
			dataDrops++
		}
	}
	if ackDrops+dataDrops != len(res.Drops) {
		t.Fatal("drop kind accounting broken")
	}
	if dataDrops == 0 {
		t.Fatal("no data drops in a congested chain")
	}
}
