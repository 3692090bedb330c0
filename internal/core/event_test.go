package core

import (
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/topology"
)

// ring returns an n-switch cycle: link i joins switches i and (i+1)%n,
// so no link is a bridge and any single link may go down.
func ring(n int) topology.Graph {
	g := topology.Graph{Switches: n}
	for i := 0; i < n; i++ {
		g.Links = append(g.Links, topology.LinkSpec{A: i, B: (i + 1) % n})
	}
	return g
}

// ringEventConfig is the shared event-test scenario: an 8-switch ring
// with two-way traffic across link 0.
func ringEventConfig() Config {
	g := ring(8)
	return Config{
		Topology:   &g,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     DefaultBuffer,
		Seed:       3,
		Warmup:     time.Second,
		Duration:   60 * time.Second,
		Conns: []ConnSpec{
			{SrcHost: 0, DstHost: 1, Start: 0},
			{SrcHost: 1, DstHost: 0, Start: 100 * time.Millisecond},
		},
	}
}

// lastDeparture returns the time of the last departure logged on trunk
// li direction dir, or -1 if none.
func lastDeparture(res *Result, li, dir int) time.Duration {
	deps := res.TrunkDeps[li][dir]
	if len(deps) == 0 {
		return -1
	}
	return deps[len(deps)-1].T
}

// TestLinkEventDownReroutes pins the semantics of a down event: routing
// steers away at T (departures on the downed line stop once its queue
// drains), packets already accepted still deliver, and traffic keeps
// flowing over the alternate path.
func TestLinkEventDownReroutes(t *testing.T) {
	downAt := 20 * time.Second
	cfg := ringEventConfig()
	cfg.Events = []LinkEvent{{T: downAt, Link: 0, Down: true}}
	res := Run(cfg)

	// The direct link carried the traffic before the event…
	for dir := 0; dir < 2; dir++ {
		if len(res.TrunkDeps[0][dir]) == 0 || res.TrunkDeps[0][dir][0].T >= downAt {
			t.Fatalf("dir %d: no pre-event departures on the direct link", dir)
		}
		// …and stops within a queue-drain of the event (20 packets of
		// 500 B at 50 kbps is 1.6 s; 5 s is a generous bound).
		if last := lastDeparture(res, 0, dir); last >= downAt+5*time.Second {
			t.Fatalf("dir %d: departure at %v, long after the link went down at %v", dir, last, downAt)
		}
	}
	// Traffic continues on the long way around: the reroute sends
	// conn 1's data (host 1 → host 0) out sw1's other port, link 1
	// reverse direction, well after the event.
	if last := lastDeparture(res, 1, 1); last < cfg.Duration-10*time.Second {
		t.Fatalf("alternate path idle after the event (last departure %v)", last)
	}
	for k, d := range res.Delivered {
		if d == 0 {
			t.Fatalf("conn %d delivered nothing", k)
		}
	}
}

// TestLinkEventDownThenRestore brings the link back with a bandwidth
// event at its original rate: routing must return to the direct path.
func TestLinkEventDownThenRestore(t *testing.T) {
	cfg := ringEventConfig()
	cfg.Events = []LinkEvent{
		{T: 15 * time.Second, Link: 0, Down: true},
		{T: 35 * time.Second, Link: 0, Bandwidth: DefaultTrunkBandwidth},
	}
	res := Run(cfg)
	if last := lastDeparture(res, 0, 0); last < 40*time.Second {
		t.Fatalf("direct link idle after restore (last departure %v)", last)
	}
}

// TestLinkEventNoOpIdentity sets a link's bandwidth to the value it
// already has: routing and port rates are untouched, so the run must be
// byte-identical to one with no events at all.
func TestLinkEventNoOpIdentity(t *testing.T) {
	cfg := ringEventConfig()
	base := Run(cfg)
	cfg.Events = []LinkEvent{{T: 10 * time.Second, Link: 3, Bandwidth: DefaultTrunkBandwidth}}
	assertRunsIdentical(t, base, Run(cfg))
}

// TestLinkEventShardIdentity is the byte-identity contract for event
// runs: mid-run down, restore, and bandwidth-step events on ring and
// scale-free topologies must produce identical results at every shard
// count.
func TestLinkEventShardIdentity(t *testing.T) {
	ringCfg := ringEventConfig()
	ringCfg.Duration = 40 * time.Second
	ringCfg.Events = []LinkEvent{
		{T: 8 * time.Second, Link: 0, Down: true},
		{T: 18 * time.Second, Link: 0, Bandwidth: DefaultTrunkBandwidth},
		{T: 25 * time.Second, Link: 4, Bandwidth: 25_000},
	}

	ba := topology.BarabasiAlbert(24, 2, 9)
	baCfg := Config{
		Topology:   &ba,
		TrunkDelay: 10 * time.Millisecond,
		Buffer:     DefaultBuffer,
		Seed:       7,
		Warmup:     5 * time.Second,
		Duration:   30 * time.Second,
		Conns: []ConnSpec{
			{SrcHost: 0, DstHost: 23, Start: -1},
			{SrcHost: 23, DstHost: 0, Start: -1},
			{SrcHost: 5, DstHost: 17, Start: -1},
			{SrcHost: 12, DstHost: 3, Start: -1},
		},
		Events: []LinkEvent{
			{T: 10 * time.Second, Link: 2, Bandwidth: 25_000},
			{T: 12 * time.Second, Link: 7, Bandwidth: 100_000},
			{T: 20 * time.Second, Link: 2, Bandwidth: DefaultTrunkBandwidth},
		},
	}

	for name, cfg := range map[string]Config{"ring": ringCfg, "ba": baCfg} {
		t.Run(name, func(t *testing.T) {
			serial := runSharded(cfg, 1)
			for _, k := range []int{2, 4} {
				assertRunsIdentical(t, serial, runSharded(cfg, k))
			}
		})
	}
}

// TestLinkEventErrors pins the build-time rejections: disconnecting
// downs (every chain link is a bridge), bad link indices, bad times,
// and ambiguous down+bandwidth events all surface as errors.
func TestLinkEventErrors(t *testing.T) {
	base := func() Config {
		cfg := DumbbellConfig(10*time.Millisecond, DefaultBuffer)
		cfg.Warmup = time.Second
		cfg.Duration = 10 * time.Second
		cfg.Conns = []ConnSpec{{SrcHost: 0, DstHost: 1, Start: 0}}
		return cfg
	}
	cases := map[string]struct {
		ev   LinkEvent
		want string
	}{
		"bridge-down":    {LinkEvent{T: 2 * time.Second, Link: 0, Down: true}, "disconnect"},
		"bad-link":       {LinkEvent{T: 2 * time.Second, Link: 5, Bandwidth: 1000}, "out of range"},
		"negative-time":  {LinkEvent{T: -time.Second, Link: 0, Bandwidth: 1000}, "negative event time"},
		"down-and-bw":    {LinkEvent{T: 2 * time.Second, Link: 0, Bandwidth: 1000, Down: true}, "both"},
		"no-change-kind": {LinkEvent{T: 2 * time.Second, Link: 0}, "positive bandwidth or down"},
	}
	for name, tc := range cases {
		cfg := base()
		cfg.Events = []LinkEvent{tc.ev}
		_, err := RunE(cfg)
		if err == nil {
			t.Errorf("%s: RunE accepted %+v", name, tc.ev)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestParseLinkEventRefusesRepeatedKeys: each key of the -event syntax
// may be given once — bw= and bandwidth= are one key — and a repeat is
// an error that names it, not a silent last-wins.
func TestParseLinkEventRefusesRepeatedKeys(t *testing.T) {
	for text, want := range map[string]string{
		"link=1,link=2,t=1s,down":          `core: event key "link" given more than once`,
		"link=0,t=1s,bw=100,bw=200":        `core: event key "bw" given more than once`,
		"link=0,t=1s,bw=100,bandwidth=200": `core: event key "bw" given more than once`,
		"link=0,t=1s,t=2s,down":            `core: event key "t" given more than once`,
		"link=0,down,t=1s,down":            `core: event key "down" given more than once`,
		"link=1,link=1,t=1s,down":          `core: event key "link" given more than once`,
	} {
		ev, err := ParseLinkEvent(text)
		if err == nil || err.Error() != want {
			t.Errorf("%q: got %+v, %v; want the error %q", text, ev, err, want)
		}
	}
	ev, err := ParseLinkEvent("link=2,t=3s,bandwidth=400")
	if want := (LinkEvent{Link: 2, T: 3 * time.Second, Bandwidth: 400}); err != nil || ev != want {
		t.Errorf("one of each key: got %+v, %v; want %+v", ev, err, want)
	}
}
