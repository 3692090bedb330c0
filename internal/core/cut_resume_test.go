package core

import (
	"fmt"
	"math/rand"
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

// TestCutAndResumeRandomScenarios is the cut-and-resume relation over
// seeded draws of small scenarios, so that every part of a port a run
// can set is cut through: a dumbbell or a 3-hop parking lot, a queue
// spec (drop-tail, Random Drop, fair queueing, RED) × a behaviour spec
// (none, loss, jitter with or without reordering, Gilbert-Elliott loss,
// a rate trace) × a source (TCP, or one connection replaced by a CBR
// or on/off source), with the trunks measured (their ports carry hooks)
// or not (a drop-tail trunk port then has no side struct). Each draw
// is cut at instants drawn from those where a trunk holds a packet —
// between two events, and where two events tie if any do — once each
// and at all of them in one run, and must equal its uncut run.
func TestCutAndResumeRandomScenarios(t *testing.T) {
	rates, err := link.NewRateTrace([]link.RateStep{{Hold: 3 * time.Second, Rate: 50_000}, {Hold: 2 * time.Second, Rate: 30_000}})
	if err != nil {
		t.Fatal(err)
	}
	queues := []*link.QueueSpec{
		nil,
		{Policy: link.PolicyRandomDrop},
		{Policy: link.PolicyFairQueue},
		{Policy: link.PolicyRED, MinTh: 4, MaxTh: 12, MaxP: 0.1, Wq: 0.05},
	}
	behaviors := []*link.BehaviorSpec{
		nil,
		{Loss: 0.01},
		{Jitter: 3 * time.Millisecond},
		{Loss: 0.005, Jitter: 5 * time.Millisecond, Reorder: true},
		{GoodToBad: 0.01, BadToGood: 0.3, BadLoss: 0.5},
		{Trace: rates},
	}
	sources := []*SourceSpec{
		nil,
		{Kind: SourceCBR, Rate: 15_000},
		{Kind: SourceOnOff, Rate: 40_000, OnMean: time.Second, OffMean: 2 * time.Second},
	}
	r := rand.New(rand.NewSource(1))
	drawn := map[string]bool{}
	for i := 0; i < 40; i++ {
		topo, cfg := "dumbbell", twoWay([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond}[r.Intn(2)])
		if r.Intn(2) == 1 {
			topo, cfg = "parking-lot", parkingLotShort()
		}
		cfg.Seed = r.Int63n(1000) + 1
		cfg.Warmup, cfg.Duration = 5*time.Second, 40*time.Second
		qi, bi, si := r.Intn(len(queues)), r.Intn(len(behaviors)), r.Intn(len(sources))
		cfg.Queue, cfg.Behavior = queues[qi], behaviors[bi]
		if si > 0 {
			cfg.Conns[r.Intn(len(cfg.Conns))].Source = sources[si]
		}
		measured := r.Intn(2) == 0
		if !measured {
			cfg.MeasureTrunks = []int{}
		}
		for _, k := range []string{topo, fmt.Sprint("queue=", qi), fmt.Sprint("behavior=", bi), fmt.Sprint("source=", si), fmt.Sprint("measured=", measured)} {
			drawn[k] = true
		}
		name := fmt.Sprintf("%d/%s/seed=%d/queue=%d/behavior=%d/source=%d/measured=%v", i, topo, cfg.Seed, qi, bi, si, measured)
		t.Run(name, func(t *testing.T) {
			want := Run(cfg)
			if want.Events == 0 {
				t.Fatal("the uncut run executed no event")
			}
			all := randomCuts(t, cfg, r)
			runs := [][]time.Duration{all}
			for _, c := range all {
				runs = append(runs, []time.Duration{c})
			}
			for _, at := range runs {
				got := cutRun(t, cfg, at)
				for _, d := range diffLogs(got, want) {
					t.Errorf("cut at %v: the %s differ from the uncut run's", at, d)
				}
			}
		})
	}
	if want := 2 + len(queues) + len(behaviors) + len(sources) + 2; len(drawn) != want {
		t.Fatalf("the draws cover %d of the %d choices: %v", len(drawn), want, drawn)
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

// randomCuts steps a probe build of cfg one event at a time past its
// warm-up and draws cut times from the instants at which some trunk
// holds a packet: two halfway between two events, and one at which two
// events fire, when there is such an instant. They come back sorted.
func randomCuts(t *testing.T, cfg Config, r *rand.Rand) []time.Duration {
	t.Helper()
	sm := Build(cfg)
	var gaps, ties []time.Duration
	prev, prevQ := time.Duration(-1), 0
	for !sm.eng.RunUntilN(cfg.Duration, 1) {
		now, q := sm.eng.Now(), longestTrunkQueue(sm)
		if prev > cfg.Warmup {
			if prevQ >= 1 && now > prev+1 {
				gaps = append(gaps, prev+(now-prev)/2)
			}
			if now == prev && q >= 1 {
				ties = append(ties, now)
			}
		}
		prev, prevQ = now, q
	}
	if len(gaps) < 2 {
		t.Fatalf("%d instants after %v with a packet waiting, want two", len(gaps), cfg.Warmup)
	}
	i, j := r.Intn(len(gaps)), r.Intn(len(gaps)-1)
	if j >= i {
		j++
	}
	cuts := []time.Duration{gaps[i], gaps[j]}
	if len(ties) > 0 {
		cuts = append(cuts, ties[r.Intn(len(ties))])
	}
	slices.Sort(cuts)
	return cuts
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
