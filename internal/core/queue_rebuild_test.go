package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

// A measured trunk's queue series is rebuilt at Finish from the port's
// admission log and its departure log (chunk.go, queueLog). The tests
// here hold it to the series recorded the way it used to be: a
// Series.Append at every admission and at every departure.

// queueReferee records, beside a built run, every measured trunk's queue
// series and queue histogram through hooks wrapped around the port's own.
type queueReferee struct {
	series  [][2]*trace.Series
	evicted [][2]int // admissions that evicted, a port: each is written by its region only
	metrics *obs.Metrics
}

// refereeQueues wraps the admission and departure hooks of every measured
// trunk port of s, which has not run yet.
func refereeQueues(t *testing.T, s *Sim) *queueReferee {
	t.Helper()
	region := func(int) int { return 0 }
	if len(s.engs) > 1 {
		part, err := s.res.Topo.Partition(s.cfg.Shards)
		if err != nil || part.K != len(s.engs) {
			t.Fatalf("re-partitioning the run: %v (%d regions, want %d)", err, part.K, len(s.engs))
		}
		region = func(sw int) int { return part.Region[sw] }
	}
	ref := &queueReferee{
		series:  make([][2]*trace.Series, len(s.trunks)),
		evicted: make([][2]int, len(s.trunks)),
		metrics: obs.NewMetrics(),
	}
	for li, pair := range s.trunks {
		if s.res.TrunkQueue[li][0] == nil {
			continue
		}
		l := s.res.Topo.Links[li]
		for dir, pt := range pair {
			eng := s.engs[region([2]int{l.A, l.B}[dir])]
			name := trunkName([2]int{l.A, l.B}[dir], [2]int{l.B, l.A}[dir])
			rs := trace.NewSeries(name)
			rs.Append(0, 0)
			ref.series[li][dir] = rs
			h := ref.metrics.NewHistogram("queue/"+name, queueBounds)
			evicted := &ref.evicted[li][dir]
			var admit func(int, bool)
			var depart func(*packet.Packet)
			admit = pt.SetOnAdmit(func(n int, ev bool) {
				admit(n, ev)
				rs.Append(eng.Now(), float64(n))
				h.Observe(float64(n))
				if ev {
					*evicted++
				}
			})
			depart = pt.SetOnDepart(func(p *packet.Packet) {
				depart(p)
				n := pt.QueueLen()
				rs.Append(eng.Now(), float64(n))
				h.Observe(float64(n))
			})
		}
	}
	return ref
}

// evictions returns the admissions that evicted, over every port.
func (ref *queueReferee) evictions() int {
	n := 0
	for _, pair := range ref.evicted {
		n += pair[0] + pair[1]
	}
	return n
}

// check holds res's queue series to the referee's, at exact length when
// settled is true (the Result Finish returned, before any step past it),
// and the queue histograms of res's registry, if any, to the referee's.
func (ref *queueReferee) check(t *testing.T, res *Result, settled bool) {
	t.Helper()
	for li, pair := range ref.series {
		for dir, want := range pair {
			if want == nil {
				continue
			}
			got := res.TrunkQueue[li][dir].Points
			if !reflect.DeepEqual(got, want.Points) {
				i := 0
				for i < min(len(got), len(want.Points)) && got[i] == want.Points[i] {
					i++
				}
				t.Fatalf("%s: %d points, the referee %d; they part at point %d", want.Name, len(got), len(want.Points), i)
			}
			if settled && cap(got) != len(got) {
				t.Fatalf("%s: %d points in a capacity of %d, want exact length", want.Name, len(got), cap(got))
			}
		}
	}
	if res.Metrics == nil {
		return
	}
	if got, want := queueHistograms(t, res.Metrics), queueHistograms(t, ref.metrics); got != want {
		t.Fatalf("queue histograms differ:\n%s\nthe referee's:\n%s", got, want)
	}
}

// queueHistograms returns the text of m's queue/ histograms.
func queueHistograms(t *testing.T, m *obs.Metrics) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	in := false
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, " ") {
			in = strings.HasPrefix(line, "hist    queue/")
		}
		if in {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestQueueRebuildAgainstReferee runs the dumbbell under drop-tail and the
// parking lot under RED, Random Drop and fair queueing, the latter three
// over lossy, jittered lines with a small buffer, at one and two shards,
// with and without metrics. Each run is canceled partway, which must not
// settle the series, finished, and then stepped on past its Finish, where
// the hooks append to the Result's own series: at both points every
// series and every queue histogram must be the referee's.
func TestQueueRebuildAgainstReferee(t *testing.T) {
	lossy := &link.BehaviorSpec{Loss: 0.005, Jitter: 2 * time.Millisecond}
	cases := []struct {
		name  string
		cfg   func() Config
		evict bool
	}{
		{"drop-tail", func() Config { return twoWay(10 * time.Millisecond) }, false},
		{"red", func() Config {
			cfg := parkingLotShort()
			cfg.Queue, cfg.Behavior = &link.QueueSpec{Policy: link.PolicyRED}, lossy
			return cfg
		}, false},
		{"random-drop", func() Config {
			cfg := parkingLotShort()
			cfg.Queue, cfg.Behavior, cfg.Buffer = &link.QueueSpec{Policy: link.PolicyRandomDrop}, lossy, 8
			return cfg
		}, true},
		{"fair-queue", func() Config {
			cfg := parkingLotShort()
			cfg.Queue, cfg.Behavior, cfg.Buffer = &link.QueueSpec{Policy: link.PolicyFairQueue}, lossy, 8
			return cfg
		}, true},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			for _, metrics := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/metrics=%v", tc.name, shards, metrics), func(t *testing.T) {
					cfg := tc.cfg()
					cfg.Shards = shards
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cfg.Obs = &obs.Options{Metrics: metrics, Progress: &obs.Progress{
						Every: time.Second,
						Fn: func(s obs.Snapshot) {
							if s.Now >= 30*time.Second {
								cancel()
							}
						},
					}}
					s := Build(cfg)
					ref := refereeQueues(t, s)
					if _, err := s.FinishContext(ctx); !errors.Is(err, context.Canceled) {
						t.Fatalf("FinishContext error = %v, want context.Canceled", err)
					}
					if q := s.res.TrunkQueue[0][0]; q.Points != nil {
						t.Fatalf("a canceled FinishContext settled %s (%d points)", q.Name, len(q.Points))
					}
					res := s.Finish()
					ref.check(t, res, true)
					if n := ref.evictions(); tc.evict && n == 0 {
						t.Fatal("no admission evicted: the case does not reach the eviction path")
					}
					s.RunUntil(cfg.Duration + 10*time.Second)
					if res.TrunkQueue[0][0].Points[len(res.TrunkQueue[0][0].Points)-1].T <= cfg.Duration {
						t.Fatal("running past Finish appended no queue point")
					}
					ref.check(t, res, false)
				})
			}
		}
	}
}

// FuzzQueueRebuild decodes a byte string into one port's admissions, some
// of them evicting, departures and clock steps — of 0 to 3 ns, and gaps
// of 2³² ns and more, which the time logs write whole — with any number
// of changes at one instant, and holds the series settle rebuilds from
// the admission, eviction and departure logs to the one Series.Append
// records from every change. One byte value settles the logs partway;
// after it, the hooks' own appends must keep the two equal.
func FuzzQueueRebuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3})                        // an admission and a departure at 0
	f.Add([]byte{1, 1, 2, 4, 3, 3, 2, 3})      // an eviction, then two departures at one instant
	f.Add([]byte{4, 1, 3, 1, 8, 3, 252, 1, 3}) // settle between changes
	f.Add([]byte{1, 1, 1, 200, 2, 2, 0, 3, 3, 3, 252, 201})
	f.Add([]byte{1, 1, 1, 64, 2, 3, 68, 2, 72, 1, 3, 76, 2, 2, 80, 3, 84, 1, 88, 3, 3}) // evictions and departures across long gaps
	f.Add([]byte{1, 1, 1, 200, 64, 2, 2, 68, 2, 3, 252, 72, 1, 76, 3, 80, 1, 3})        // a run, long gaps, settled partway
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 256)]
		lp := newLogPools()
		var logs runLogs
		got, want := trace.NewSeries("q"), trace.NewSeries("q")
		want.Append(0, 0)
		var depsOut []trace.Departure
		deps := logs.departures(lp, &depsOut)
		q := logs.queue(lp, &depsOut, got)
		pkt := packet.Packet{Conn: 1}
		now, n, settled := time.Duration(0), 0, false
		admit := func(evicted bool) {
			if !evicted {
				n++
			}
			q.admit(now, evicted, n) // after the settle, a point in got
			want.Append(now, float64(n))
		}
		depart := func() {
			n--
			q.depart(deps, now, &pkt)
			if settled {
				got.Append(now, float64(n))
			}
			want.Append(now, float64(n))
		}
		settle := func() {
			logs.settle()
			settled = true
			if !reflect.DeepEqual(got.Points, want.Points) {
				t.Fatalf("settled %d points, Series.Append recorded %d, or they differ", len(got.Points), len(want.Points))
			}
			if cap(got.Points) != len(got.Points) {
				t.Fatalf("settled %d points in a capacity of %d", len(got.Points), cap(got.Points))
			}
		}
		for _, b := range ops {
			arg := int(b >> 2)
			switch b % 4 {
			case 0:
				switch {
				case b == 252 && !settled:
					settle()
				case arg >= 32: // a run of admissions and departures over many chunks
					for j := range (arg - 31) * 64 {
						now += time.Duration(j % 2)
						if j%3 == 2 && n > 0 {
							depart()
						} else {
							admit(false)
						}
					}
				case arg >= 16: // a gap of 2³² ns or more
					now = longGap(now, arg)
				default: // a step of 0 to 3 ns: 0 keeps the instant
					now += time.Duration(arg % 4)
				}
			case 1:
				admit(false)
			case 2: // an eviction needs a packet waiting behind the one on the line
				admit(n >= 2)
			case 3:
				if n > 0 {
					depart()
				}
			}
		}
		if !settled {
			settle()
		} else if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("after settling, the series holds %d points, Series.Append recorded %d, or they differ", len(got.Points), len(want.Points))
		}
	})
}
