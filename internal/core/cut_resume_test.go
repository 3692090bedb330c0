package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
)

// A run cut and resumed through RunUntil equals the uncut run (ROADMAP
// item 5's cut-and-resume relation), wherever the cut falls: between
// two events while a trunk holds a burst, at an instant where two
// events tie, and at a link event. Each cut is checked to find packets
// waiting in some trunk queue, so the relation covers queues that the
// cut leaves non-empty. The drops, every trunk's departures and queue
// series, every connection's window and ACK times and the event count
// must be byte-equal — on the dumbbell at τ = 10 ms and 1 s, a RED and
// a Random Drop dumbbell (whose evictions take packets out of the
// middle of a queue), and a small mesh with a link that goes down and
// comes back up.
func TestCutAndResumeEqualsUncut(t *testing.T) {
	dumbbell := func(tau time.Duration, q *link.QueueSpec) Config {
		cfg := twoWay(tau)
		cfg.Queue = q
		return cfg
	}
	g := topology.BarabasiAlbert(24, 2, 9)
	mesh := Config{
		Topology:   &g,
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
			{T: 9 * time.Second, Link: 2, Down: true},
			{T: 17 * time.Second, Link: 2, Bandwidth: DefaultTrunkBandwidth},
		},
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"dumbbell/tau=10ms", dumbbell(10*time.Millisecond, nil)},
		{"dumbbell/tau=1s", dumbbell(time.Second, nil)},
		{"red", dumbbell(10*time.Millisecond, &link.QueueSpec{Policy: link.PolicyRED, MinTh: 4, MaxTh: 12, MaxP: 0.1, Wq: 0.05})},
		{"random-drop", dumbbell(10*time.Millisecond, &link.QueueSpec{Policy: link.PolicyRandomDrop})},
		{"mesh/down-up", mesh},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := Run(c.cfg)
			if len(want.Drops) == 0 {
				t.Fatal("the uncut run dropped nothing: the relation compares no drop")
			}
			mid, tie := cutPoints(t, c.cfg)
			cuts := map[string][]time.Duration{
				"mid-burst": {mid},
				"tie":       {tie},
				"all":       {mid, tie},
			}
			for _, e := range c.cfg.Events {
				cuts["link event"] = append(cuts["link event"], e.T)
				cuts["all"] = append(cuts["all"], e.T)
			}
			slices.Sort(cuts["all"])
			t.Logf("%d drops; cuts %v", len(want.Drops), cuts)
			for name, at := range cuts {
				got := cutRun(t, c.cfg, at)
				for _, d := range diffLogs(got, want) {
					t.Errorf("cut %s at %v: the %s differ from the uncut run's", name, at, d)
				}
			}
		})
	}
}

// cutPoints steps a probe build of cfg one event at a time past its
// warm-up and returns two cut times: mid, halfway between two events
// while some trunk holds two packets or more, and tie, an instant at
// which two events fire while some trunk holds a packet.
func cutPoints(t *testing.T, cfg Config) (mid, tie time.Duration) {
	t.Helper()
	sm := Build(cfg)
	prev, prevQ := time.Duration(-1), 0
	for mid == 0 || tie == 0 {
		if sm.eng.RunUntilN(cfg.Duration, 1) {
			t.Fatalf("no burst or tie with packets waiting after %v", cfg.Warmup)
		}
		now, q := sm.eng.Now(), longestTrunkQueue(sm)
		if prev > cfg.Warmup {
			if mid == 0 && prevQ >= 2 && now > prev+1 {
				mid = prev + (now-prev)/2
			}
			if tie == 0 && now == prev && q >= 1 {
				tie = now
			}
		}
		prev, prevQ = now, q
	}
	return mid, tie
}

// longestTrunkQueue returns the longest queue of any trunk port of sm.
func longestTrunkQueue(sm *Sim) int {
	n := 0
	for _, tr := range sm.trunks {
		n = max(n, tr[0].QueueLen(), tr[1].QueueLen())
	}
	return n
}

// cutRun runs cfg cut at each of the times at, in order, checking that
// every cut leaves a packet waiting in some trunk queue, and finishes it.
func cutRun(t *testing.T, cfg Config, at []time.Duration) *Result {
	t.Helper()
	sm := Build(cfg)
	for _, T := range at {
		sm.RunUntil(T)
		if longestTrunkQueue(sm) == 0 {
			t.Fatalf("the cut at %v finds every trunk queue empty", T)
		}
	}
	return sm.Finish()
}

// diffLogs names the logs in which a and b differ.
func diffLogs(a, b *Result) []string {
	queues := func(res *Result) [][2][]trace.Point {
		pts := make([][2][]trace.Point, len(res.TrunkQueue))
		for li, qs := range res.TrunkQueue {
			for dir, s := range qs {
				if s != nil {
					pts[li][dir] = s.Points
				}
			}
		}
		return pts
	}
	var diffs []string
	for _, c := range []struct {
		log  string
		a, b any
	}{
		{"drops", a.Drops, b.Drops},
		{"trunk departures", a.TrunkDeps, b.TrunkDeps},
		{"queue series", queues(a), queues(b)},
		{"windows", a.Cwnd, b.Cwnd},
		{"ACK times", a.AckArrivals, b.AckArrivals},
		{"event counts", a.Events, b.Events},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			diffs = append(diffs, c.log)
		}
	}
	return diffs
}
