package core

import (
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/topology"
)

// oneWayConfig is the §3.1 configuration: three connections, all with
// sources on Host-1, τ = 1 s, buffer 20.
func oneWayConfig(tau time.Duration, nConns int) Config {
	cfg := DumbbellConfig(tau, DefaultBuffer)
	for i := 0; i < nConns; i++ {
		cfg.Conns = append(cfg.Conns, ConnSpec{SrcHost: 0, DstHost: 1, Start: -1})
	}
	return cfg
}

func TestNormalizeDefaults(t *testing.T) {
	cfg := Config{Conns: []ConnSpec{{SrcHost: 0, DstHost: 1}}, Warmup: 1}
	cfg.Normalize()
	if cfg.Switches != 2 || cfg.DataSize != 500 || cfg.AckSize != 0 {
		t.Fatalf("normalized = %+v", cfg)
	}
	if cfg.Conns[0].MaxWnd != DefaultMaxWnd {
		t.Fatalf("MaxWnd = %d", cfg.Conns[0].MaxWnd)
	}
}

// A run takes its Config by value, but Conns is a slice: the defaults
// normalize fills in must not reach the caller's backing array — two
// workers may be running the same Config — while Result.Cfg still
// carries them. A Config with every window explicit is not copied.
func TestRunLeavesCallersConnsAlone(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Conns[1].MaxWnd = 64
	res := Run(cfg)
	if cfg.Conns[0].MaxWnd != 0 || cfg.Conns[1].MaxWnd != 64 {
		t.Fatalf("Run edited the caller's Conns: MaxWnd %d, %d; want 0, 64", cfg.Conns[0].MaxWnd, cfg.Conns[1].MaxWnd)
	}
	if got := res.Cfg.Conns; got[0].MaxWnd != DefaultMaxWnd || got[1].MaxWnd != 64 {
		t.Fatalf("Result.Cfg is not normalized: MaxWnd %d, %d", got[0].MaxWnd, got[1].MaxWnd)
	}
	cfg.Conns[0].MaxWnd = 32
	if res := Run(cfg); &res.Cfg.Conns[0] != &cfg.Conns[0] {
		t.Fatal("Conns was copied although no default had to be written")
	}
}

func TestNormalizeRejectsBadConns(t *testing.T) {
	for _, bad := range []ConnSpec{
		{SrcHost: 0, DstHost: 0},
		{SrcHost: 0, DstHost: 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", bad)
				}
			}()
			cfg := DumbbellConfig(time.Second, 20)
			cfg.Conns = []ConnSpec{bad}
			cfg.Normalize()
		}()
	}
}

// TestRunERejectsNegativeDurations holds RunE to its contract for the
// duration fields of a Config: a negative one is an error that names the
// field, not a panic in the engine or in the start-time draw.
func TestRunERejectsNegativeDurations(t *testing.T) {
	const neg = -time.Millisecond
	for _, c := range []struct {
		field string
		edit  func(*Config)
	}{
		{"TrunkDelay", func(c *Config) { c.TrunkDelay = neg }},
		{"AccessDelay", func(c *Config) { c.AccessDelay = neg }},
		{"HostProcessing", func(c *Config) { c.HostProcessing = neg }},
		{"StartSpread", func(c *Config) { c.StartSpread = neg }},
		{"Warmup", func(c *Config) { c.Warmup = neg }},
		{"Duration", func(c *Config) { c.Warmup, c.Duration = 0, neg }},
		{"link 0: negative Delay", func(c *Config) {
			g := topology.Dumbbell()
			g.Links[0].Delay = neg
			c.Topology = &g
		}},
	} {
		t.Run(c.field, func(t *testing.T) {
			cfg := twoWay(10 * time.Millisecond)
			cfg.Warmup, cfg.Duration = time.Second, 5*time.Second
			c.edit(&cfg)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("RunE panicked: %v", p)
				}
			}()
			_, err := RunE(cfg)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("RunE error %v, want one naming %s", err, c.field)
			}
		})
	}
}

func TestPipeSize(t *testing.T) {
	cfg := DumbbellConfig(time.Second, 20)
	if got := cfg.PipeSize(); got != 12.5 {
		t.Fatalf("P(τ=1s) = %v, want 12.5", got)
	}
	cfg = DumbbellConfig(10*time.Millisecond, 20)
	if got := cfg.PipeSize(); got != 0.125 {
		t.Fatalf("P(τ=0.01s) = %v, want 0.125", got)
	}
	if got := cfg.DataTxTime(); got != 80*time.Millisecond {
		t.Fatalf("data tx = %v, want 80ms", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := oneWayConfig(10*time.Millisecond, 2)
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 60 * time.Second
	a := Run(cfg)
	b := Run(cfg)
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	if a.UtilForward() != b.UtilForward() {
		t.Fatalf("utilization differs: %v vs %v", a.UtilForward(), b.UtilForward())
	}
	if len(a.Drops) != len(b.Drops) {
		t.Fatalf("drop counts differ: %d vs %d", len(a.Drops), len(b.Drops))
	}
}

func TestRunSeedChangesStartTimes(t *testing.T) {
	cfg := oneWayConfig(10*time.Millisecond, 2)
	cfg.Warmup = 10 * time.Second
	cfg.Duration = 30 * time.Second
	a := Run(cfg)
	cfg.Seed = 2
	b := Run(cfg)
	if a.Events == b.Events {
		t.Log("seeds produced identical event counts (possible but unlikely); checking traces")
		if len(a.AckArrivals[0]) == len(b.AckArrivals[0]) &&
			a.AckArrivals[0][0] == b.AckArrivals[0][0] {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

// Packet conservation: every data packet sent is delivered, dropped, or
// still in flight at the end of the run.
func TestPacketConservation(t *testing.T) {
	cfg := oneWayConfig(10*time.Millisecond, 3)
	cfg.Warmup = 10 * time.Second
	cfg.Duration = 120 * time.Second
	res := Run(cfg)
	var sent, retrans uint64
	for _, st := range res.SenderStats {
		sent += st.DataSent
		retrans += st.Retransmits
	}
	var accepted uint64
	for k, st := range res.ReceiverStats {
		accepted += st.DataReceived + st.DupData
		if res.Delivered[k] == 0 {
			t.Fatalf("conn %d delivered nothing", k+1)
		}
	}
	dataDrops := 0
	for _, d := range res.Drops {
		if d.Kind == packet.Data {
			dataDrops++
		}
	}
	// In flight at the end is bounded by the sum of windows; allow a
	// loose bound of 100 packets.
	diff := int64(sent) - int64(accepted) - int64(dataDrops)
	if diff < 0 || diff > 100 {
		t.Fatalf("conservation: sent=%d accepted=%d dropped=%d diff=%d",
			sent, accepted, dataDrops, diff)
	}
}

// The §3.1 one-way sanity check, small pipe: utilization should be near
// 100 % and losses synchronized across connections.
func TestOneWaySmallPipeBasics(t *testing.T) {
	cfg := oneWayConfig(10*time.Millisecond, 3)
	cfg.Warmup = 50 * time.Second
	cfg.Duration = 300 * time.Second
	res := Run(cfg)
	if res.UtilForward() < 0.95 {
		t.Fatalf("one-way small-pipe utilization = %v, want ≈1", res.UtilForward())
	}
	// Reverse direction carries only ACKs: tiny utilization.
	if res.UtilReverse() > 0.3 {
		t.Fatalf("reverse (ACK) utilization = %v, suspiciously high", res.UtilReverse())
	}
	// No ACKs are ever dropped in these configurations (§4.2).
	for _, d := range res.Drops {
		if d.Kind == packet.Ack {
			t.Fatalf("ACK dropped at %v on %s", d.T, d.Port)
		}
	}
	// All drops happen at the bottleneck port.
	for _, d := range res.Drops {
		if d.Port != "sw0->sw1" {
			t.Fatalf("drop at unexpected port %s", d.Port)
		}
	}
}
