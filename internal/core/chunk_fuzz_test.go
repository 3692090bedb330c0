package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tahoedyn/internal/trace"
)

// chunkModel is one log under test beside the plain slices it must equal:
// a series appended by Series.Append, and a time log appended by append.
type chunkModel struct {
	res      *trace.Series // what the log settles into
	times    []time.Duration
	pts      *seriesLog
	tl       *chunkLog[time.Duration]
	want     *trace.Series
	wantT    []time.Duration
	now      time.Duration
	nilEmpty bool // the series settles empty as nil, as an RTT series does
}

func newChunkModel(logs *runLogs, lp *logPools, name string, nilEmpty bool) *chunkModel {
	m := &chunkModel{res: trace.NewSeries(name), want: trace.NewSeries(name), nilEmpty: nilEmpty}
	m.pts = logs.series(&lp.points, m.res, nilEmpty)
	m.tl = newLog(logs, &lp.times, &m.times, false)
	return m
}

// appendAt appends a point at t to the log and the model alike; both
// must panic, with the same message, or neither.
func (m *chunkModel) appendAt(t *testing.T, at time.Duration, v float64) {
	t.Helper()
	if at >= m.now { // no panic: the common case, kept cheap
		m.pts.add(at, v)
		m.want.Append(at, v)
		m.tl.add(at)
		m.wantT = append(m.wantT, at)
		m.now = at
		return
	}
	recovered := func(fn func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		return ""
	}
	got := recovered(func() { m.pts.add(at, v) })
	want := recovered(func() { m.want.Append(at, v) })
	if got != want {
		t.Fatalf("append at %v: the log panicked with %q, Series.Append with %q", at, got, want)
	}
	if want == "" {
		m.tl.add(at)
		m.wantT = append(m.wantT, at)
		m.now = at
	}
}

// check compares what the log settled, and what was appended after, with
// the model. An empty log settles to an empty, non-nil slice, but for a
// series that settles empty as nil.
func (m *chunkModel) check(t *testing.T) {
	t.Helper()
	wantPts, wantT := m.want.Points, m.wantT
	if wantPts == nil && !m.nilEmpty {
		wantPts = []trace.Point{}
	}
	if wantT == nil {
		wantT = []time.Duration{}
	}
	if !reflect.DeepEqual(m.res.Points, wantPts) {
		t.Fatalf("%s: settled %d points, the model holds %d, or they differ", m.res.Name, len(m.res.Points), len(m.want.Points))
	}
	if !reflect.DeepEqual(m.times, wantT) {
		t.Fatalf("%s: settled %d times, the model holds %d, or they differ", m.res.Name, len(m.times), len(m.wantT))
	}
}

// FuzzChunkLog decodes a byte string into appends to a series' chunk
// log and a time log — steps forward, equal-time overwrites (on the last
// slot of a full chunk and the first of a fresh one too), steps back,
// which must panic as Series.Append does, and runs of up to a thousand
// points that reach the full-size chunks — and into settles, after which a
// second log takes the same pool's chunks while the first, settled, goes
// on appending to its own copy. Every settled log must equal what plain
// append under Series.Append's rule gives, no chunk may be on two lists,
// and the pools' count of bytes taken must be what the logs hold.
func FuzzChunkLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 2, 5})
	steps := func(n int, then ...byte) []byte {
		var b []byte
		for range n {
			b = append(b, 0, 1)
		}
		return append(b, then...)
	}
	// The first point and 15 steps fill the first chunk: an equal-time
	// append then overwrites its last slot instead of opening a chunk; a
	// 16th step opens the second chunk, and an equal-time append
	// overwrites its first slot.
	f.Add(steps(15, 0, 0, 0, 1))
	f.Add(steps(16, 0, 0, 0, 1))
	f.Add([]byte{3, 40, 1, 0, 2, 0, 3, 9, 0, 0, 2, 0, 0, 3})
	f.Add([]byte{2, 0, 1, 0, 2, 1, 2, 0})
	f.Add([]byte{3, 255, 3, 255, 0, 0, 1, 0, 2, 0, 3, 255, 0, 1, 2, 0, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 256)] // 128 operations: up to 131 072 points
		lp := newLogPools()
		var logs runLogs
		m := newChunkModel(&logs, lp, "log0", false)
		m.appendAt(t, 0, 0) // as the build appends a queue series' first point
		var settled []*chunkModel
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, ops[i+1]
			switch op {
			case 0: // a step forward of 0..3 ns: 0 overwrites the last point
				m.appendAt(t, m.now+time.Duration(arg%4), float64(arg))
			case 1: // a step back, which must panic while there is a point
				m.appendAt(t, m.now-1-time.Duration(arg%3), float64(arg))
			case 2: // settle; a new log takes the pool's chunks, as the next build's would
				logs.settle()
				lp.held = 0
				m.check(t)
				settled = append(settled, m)
				logs = runLogs{}
				m = newChunkModel(&logs, lp, fmt.Sprintf("log%d", len(settled)), len(settled)%2 == 1)
				for _, s := range settled { // appends past Finish go to each settled copy
					s.appendAt(t, s.now+time.Duration(arg%2), 1)
				}
			case 3: // a run of 16 to 1024 points, a step and a value each
				for j := 0; j < (int(arg%64)+1)*16; j++ {
					m.appendAt(t, m.now+1, float64(j))
				}
			}
		}
		var held int
		seen := map[unsafe.Pointer]bool{}
		note := func(p unsafe.Pointer, where string) {
			if seen[p] {
				t.Fatalf("a chunk is on two lists (found again on %s)", where)
			}
			seen[p] = true
		}
		m.pts.each(func(d []trace.Point) {
			note(unsafe.Pointer(unsafe.SliceData(d)), "the live series log")
			held += cap(d) * int(unsafe.Sizeof(trace.Point{}))
		})
		m.tl.each(func(d []time.Duration) {
			note(unsafe.Pointer(unsafe.SliceData(d)), "the live time log")
			held += cap(d) * int(unsafe.Sizeof(time.Duration(0)))
		})
		for _, k := range lp.points.free {
			for ; k != nil; k = k.next {
				note(unsafe.Pointer(unsafe.SliceData(k.data[:1])), "the point pool")
			}
		}
		for _, k := range lp.times.free {
			for ; k != nil; k = k.next {
				note(unsafe.Pointer(unsafe.SliceData(k.data[:1])), "the time pool")
			}
		}
		if held != lp.held {
			t.Fatalf("the live logs hold %d B of chunks, the pools count %d B taken", held, lp.held)
		}
		logs.settle()
		for _, s := range append(settled, m) {
			s.check(t)
		}
	})
}
