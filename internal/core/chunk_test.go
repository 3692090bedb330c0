package core

import (
	"reflect"
	"testing"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

// TestTimeLogGaps holds every time-stamped log to the times appended over
// the gaps at the edge of a 4-byte delta — 0, 2³²−2, the escape word's
// own 2³²−1, 2³², an hour — from 0 and from past 2⁶² ns: each settles to
// what plain appends give, across chunk boundaries that split a time
// written whole, and a gap under 2³²−1 ns costs one word, any other three.
func TestTimeLogGaps(t *testing.T) {
	const n = 40 // times a log: into the third chunk
	for _, gap := range []time.Duration{0, 1, 1<<32 - 2, 1<<32 - 1, 1 << 32, time.Hour} {
		for _, start := range []time.Duration{0, 1<<62 + 3} {
			lp := newLogPools()
			var logs runLogs
			var times []time.Duration
			var deps []trace.Departure
			tl := logs.times(lp, &times)
			dl := logs.departures(lp, &deps)
			got, gotQ := trace.NewSeries("s"), trace.NewSeries("q")
			sl := logs.series(lp, got, false)
			q := logs.queue(lp, &deps, gotQ)

			want, wantQ := trace.NewSeries("s"), trace.NewSeries("q")
			wantQ.Append(0, 0)
			var wantT []time.Duration
			var wantD []trace.Departure
			words, queued := 0, 0
			for i := range n {
				at := start + time.Duration(i)*gap
				if d := at - tl.last; d >= 0 && d < 1<<32-1 {
					words++
				} else {
					words += 3
				}
				p := packet.Packet{Conn: i % 3, Kind: packet.Kind(i % 2), Seq: i}
				tl.add(at)
				q.depart(dl, at, &p)
				sl.add(at, float64(i))
				wantT = append(wantT, at)
				wantD = append(wantD, trace.NewDeparture(at, p.Conn, p.Kind, p.Seq))
				want.Append(at, float64(i))
				// Two admissions at every time, the second evicting at one
				// time in four, and a departure, as the departure log has
				// them: the queue grows but when an admission evicts.
				for k := range 2 {
					evicted := k == 1 && i%4 == 3
					if !evicted {
						queued++
					}
					q.admit(at, evicted, queued)
					wantQ.Append(at, float64(queued))
				}
				queued--
				wantQ.Append(at, float64(queued))
			}
			if q.evicts.len() != n/4 {
				t.Errorf("gap %v from %v: %d evictions logged, want %d", gap, start, q.evicts.len(), n/4)
			}
			if tl.w.len() != words {
				t.Errorf("gap %v from %v: %d words for %d times, want %d", gap, start, tl.w.len(), n, words)
			}
			logs.settle()
			if !reflect.DeepEqual(times, wantT) {
				t.Errorf("gap %v from %v: the time log settled %v, want %v", gap, start, times, wantT)
			}
			if !reflect.DeepEqual(deps, wantD) {
				t.Errorf("gap %v from %v: the departure log settled %v, want %v", gap, start, deps, wantD)
			}
			if !reflect.DeepEqual(got.Points, want.Points) {
				t.Errorf("gap %v from %v: the series settled %v, want %v", gap, start, got.Points, want.Points)
			}
			if !reflect.DeepEqual(gotQ.Points, wantQ.Points) {
				t.Errorf("gap %v from %v: the queue series settled %v, want %v", gap, start, gotQ.Points, wantQ.Points)
			}
		}
	}
}

// add appends the departure of p at t, as a port's departure hook does.
func (l *depLog) add(t time.Duration, p *packet.Packet) {
	if r := newDepRest(p); !l.put(t, r) {
		l.addSlow(t, r)
	}
}

// admit logs an admission at t that evicted a waiting packet or not and
// left n packets at the port, as a port's admission hook does.
func (l *queueLog) admit(t time.Duration, evicted bool, n int) {
	l.changed(t)
	if evicted {
		l.evicted(t)
	}
	if !l.put(t) {
		l.admitSlow(t, n)
	}
}

// depart logs the departure of p at t in deps and counts it in the queue
// log l, as a port's departure hook does.
func (l *queueLog) depart(deps *depLog, t time.Duration, p *packet.Packet) {
	deps.add(t, p)
	l.changed(t)
}
