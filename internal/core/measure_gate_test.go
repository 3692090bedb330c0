package core

import (
	"reflect"
	"testing"
	"time"

	"tahoedyn/internal/link"
)

// TestMeasureGatingIdentity pins the MeasureTrunks/MeasureConns
// contract: gating is observation-only. A run that measures only a
// subset of trunks and connections must produce byte-identical physics
// (SenderStats, ReceiverStats, Delivered, Goodput, TrunkUtil, Events)
// and, for the measured indices, byte-identical series to an ungated
// run; unmeasured indices stay nil.
func TestMeasureGatingIdentity(t *testing.T) {
	cfg := parkingLotShort()
	full := Run(cfg)

	gated := parkingLotShort()
	gated.MeasureTrunks = []int{1}
	gated.MeasureConns = []int{0, 2}
	res := Run(gated)

	if !reflect.DeepEqual(res.SenderStats, full.SenderStats) {
		t.Fatalf("SenderStats diverged:\n gated %+v\n  full %+v", res.SenderStats, full.SenderStats)
	}
	if !reflect.DeepEqual(res.ReceiverStats, full.ReceiverStats) {
		t.Fatalf("ReceiverStats diverged")
	}
	if !reflect.DeepEqual(res.Delivered, full.Delivered) {
		t.Fatalf("Delivered diverged: gated %v full %v", res.Delivered, full.Delivered)
	}
	if !reflect.DeepEqual(res.Goodput, full.Goodput) {
		t.Fatalf("Goodput diverged: gated %v full %v", res.Goodput, full.Goodput)
	}
	if !reflect.DeepEqual(res.TrunkUtil, full.TrunkUtil) {
		t.Fatalf("TrunkUtil diverged: gated %v full %v", res.TrunkUtil, full.TrunkUtil)
	}
	if res.Events != full.Events {
		t.Fatalf("Events diverged: gated %d full %d", res.Events, full.Events)
	}

	// Measured entries equal the full run's; unmeasured entries are nil.
	for i := range res.TrunkQueue {
		for dir := range res.TrunkQueue[i] {
			if i != 1 {
				if res.TrunkQueue[i][dir] != nil || res.TrunkDeps[i][dir] != nil {
					t.Fatalf("trunk %d dir %d: unmeasured but instrumented", i, dir)
				}
				continue
			}
			if !reflect.DeepEqual(res.TrunkQueue[i][dir].Points, full.TrunkQueue[i][dir].Points) {
				t.Fatalf("trunk %d dir %d: queue series diverged", i, dir)
			}
			if !reflect.DeepEqual(res.TrunkDeps[i][dir], full.TrunkDeps[i][dir]) {
				t.Fatalf("trunk %d dir %d: departure log diverged", i, dir)
			}
		}
	}
	measured := map[int]bool{0: true, 2: true}
	for k := range res.Cwnd {
		if !measured[k] {
			if res.Cwnd[k] != nil || res.RTT[k] != nil || res.AckArrivals[k] != nil || res.Collapses[k] != nil {
				t.Fatalf("conn %d: unmeasured but instrumented", k)
			}
			continue
		}
		if !reflect.DeepEqual(res.Cwnd[k].Points, full.Cwnd[k].Points) {
			t.Fatalf("conn %d: cwnd series diverged", k)
		}
		if !reflect.DeepEqual(res.RTT[k].Points, full.RTT[k].Points) {
			t.Fatalf("conn %d: RTT series diverged", k)
		}
		if !reflect.DeepEqual(res.AckArrivals[k], full.AckArrivals[k]) {
			t.Fatalf("conn %d: ACK arrivals diverged", k)
		}
		if !reflect.DeepEqual(res.Collapses[k], full.Collapses[k]) {
			t.Fatalf("conn %d: collapses diverged", k)
		}
	}
}

// TestMeasureGatingValidation pins the out-of-range errors: every field
// that names a connection or a link by index is refused when there is no
// such connection or link — the two link-keyed maps included, which used
// to build and run drop-tail on an ideal line.
func TestMeasureGatingValidation(t *testing.T) {
	red := &link.QueueSpec{Policy: link.PolicyRED}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"MeasureConns", func(c *Config) { c.MeasureConns = []int{5} }, "core: MeasureConns names connection 5, out of range [0,2)"},
		{"MeasureTrunks", func(c *Config) { c.MeasureTrunks = []int{3} }, "core: MeasureTrunks names link 3, out of range [0,1)"},
		{"MeasureTrunks negative", func(c *Config) { c.MeasureTrunks = []int{0, -1} }, "core: MeasureTrunks names link -1, out of range [0,1)"},
		{"LinkQueue", func(c *Config) { c.LinkQueue = map[int]*link.QueueSpec{0: red, 99: red} }, "core: LinkQueue names link 99, out of range [0,1)"},
		{"LinkQueue nil spec", func(c *Config) { c.LinkQueue = map[int]*link.QueueSpec{1: nil} }, "core: LinkQueue names link 1, out of range [0,1)"},
		{"LinkQueue negative", func(c *Config) { c.LinkQueue = map[int]*link.QueueSpec{-1: red} }, "core: LinkQueue names link -1, out of range [0,1)"},
		{"LinkBehavior", func(c *Config) { c.LinkBehavior = map[int]*link.BehaviorSpec{99: {Loss: 0.01}} }, "core: LinkBehavior names link 99, out of range [0,1)"},
		{"LinkBehavior negative", func(c *Config) { c.LinkBehavior = map[int]*link.BehaviorSpec{-2: {}} }, "core: LinkBehavior names link -2, out of range [0,1)"},
	} {
		cfg := twoWay(10 * time.Millisecond)
		tc.set(&cfg)
		if _, err := BuildE(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s: BuildE error = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := NewArena().RunE(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Arena.RunE error = %v, want %q", tc.name, err, tc.want)
		}
	}
	// In range, the same keys build.
	cfg := twoWay(10 * time.Millisecond)
	cfg.LinkQueue = map[int]*link.QueueSpec{0: red}
	cfg.LinkBehavior = map[int]*link.BehaviorSpec{0: {Loss: 0.01}}
	cfg.MeasureTrunks = []int{0}
	if _, err := BuildE(cfg); err != nil {
		t.Fatal(err)
	}
}
