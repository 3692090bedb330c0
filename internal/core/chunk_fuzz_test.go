package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

// chunkModel is one set of logs under test beside the plain slices they
// must equal: a series appended by Series.Append, a time log and a
// departure log appended by append.
type chunkModel struct {
	res      *trace.Series // what the log settles into
	times    []time.Duration
	deps     []trace.Departure
	pts      *seriesLog
	tl       *timeLog
	dl       *depLog
	want     *trace.Series
	wantT    []time.Duration
	wantD    []trace.Departure
	now      time.Duration
	nilEmpty bool // the series settles empty as nil, as an RTT series does
}

func newChunkModel(logs *runLogs, lp *logPools, name string, nilEmpty bool) *chunkModel {
	m := &chunkModel{res: trace.NewSeries(name), want: trace.NewSeries(name), nilEmpty: nilEmpty}
	m.pts = logs.series(lp, m.res, nilEmpty)
	m.tl = logs.times(lp, &m.times)
	m.dl = logs.departures(lp, &m.deps)
	return m
}

// logged appends a time and a departure at the model's new time at, the
// departure's fields drawn from v.
func (m *chunkModel) logged(at time.Duration, v float64) {
	p := packet.Packet{Conn: int(v) % 5, Kind: packet.Kind(int(v) % 2), Seq: int(v) * 3}
	m.tl.add(at)
	m.dl.add(at, &p)
	m.wantT = append(m.wantT, at)
	m.wantD = append(m.wantD, trace.NewDeparture(at, p.Conn, p.Kind, p.Seq))
	m.now = at
}

// appendAt appends a point at t to the log and the model alike; both
// must panic, with the same message, or neither.
func (m *chunkModel) appendAt(t *testing.T, at time.Duration, v float64) {
	t.Helper()
	if at >= m.now { // no panic: the common case, kept cheap
		m.pts.add(at, v)
		m.want.Append(at, v)
		m.logged(at, v)
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
		m.logged(at, v)
	}
}

// check compares what the log settled, and what was appended after, with
// the model. An empty log settles to an empty, non-nil slice, but for a
// series that settles empty as nil.
func (m *chunkModel) check(t *testing.T) {
	t.Helper()
	wantPts, wantT, wantD := m.want.Points, m.wantT, m.wantD
	if wantPts == nil && !m.nilEmpty {
		wantPts = []trace.Point{}
	}
	if wantT == nil {
		wantT, wantD = []time.Duration{}, []trace.Departure{}
	}
	if !reflect.DeepEqual(m.res.Points, wantPts) {
		t.Fatalf("%s: settled %d points, the model holds %d, or they differ", m.res.Name, len(m.res.Points), len(m.want.Points))
	}
	if !reflect.DeepEqual(m.times, wantT) {
		t.Fatalf("%s: settled %d times, the model holds %d, or they differ", m.res.Name, len(m.times), len(m.wantT))
	}
	if !reflect.DeepEqual(m.deps, wantD) {
		t.Fatalf("%s: settled %d departures, the model holds %d, or they differ", m.res.Name, len(m.deps), len(m.wantD))
	}
}

// longGaps are the gaps FuzzChunkLog and FuzzQueueRebuild step over:
// around 2³² ns, where a time log stops writing a delta and writes the
// time whole, and far past it.
var longGaps = [...]time.Duration{1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, time.Hour, 1 << 40}

// longGap returns the time after now by the gap arg picks: one of
// longGaps, or a time above 2⁶² ns.
func longGap(now time.Duration, arg int) time.Duration {
	if i := arg % (len(longGaps) + 1); i < len(longGaps) {
		return now + longGaps[i]
	}
	return max(now, 1<<62) + time.Duration(arg)
}

// FuzzChunkLog decodes a byte string into appends to a series' logs, a
// time log and a departure log — steps forward, gaps of 2³² ns and more
// and a jump past 2⁶² ns, which a time log writes whole, equal-time
// overwrites (on the last slot of a full chunk and the first of a fresh
// one too, and on a value when only the time chunk is full), steps back,
// which must panic as Series.Append does, and runs of up to a thousand
// points that reach the full-size chunks — and into settles, after which
// a second set of logs takes the same pools' chunks while the first,
// settled, goes on appending to its own copies. Every settled log must
// equal what plain append under Series.Append's rule gives, no chunk may
// be on two lists, and the pools' count of bytes taken must be what the
// logs hold.
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
	// The first point and 15 steps fill the first chunks: an equal-time
	// append then overwrites the last slot instead of opening a chunk; a
	// 16th step opens the second chunks, and an equal-time append
	// overwrites the first slot.
	f.Add(steps(15, 0, 0, 0, 1))
	f.Add(steps(16, 0, 0, 0, 1))
	// A gap of 2³² ns is three words of the time chunk: after 12 steps it
	// is full and the value chunk is not, and an equal-time append
	// overwrites a value in the middle of its chunk.
	f.Add(append([]byte{4, 2}, steps(12, 0, 0, 0, 1, 0, 1)...))
	f.Add([]byte{4, 0, 4, 1, 0, 0, 4, 2, 4, 3, 4, 4, 2, 0, 4, 5, 4, 6, 0, 1, 4, 6})
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
			op, arg := ops[i]%5, ops[i+1]
			switch op {
			case 0: // a step forward of 0..3 ns: 0 overwrites the last point
				m.appendAt(t, m.now+time.Duration(arg%4), float64(arg))
			case 1: // a step back, which must panic while there is a point
				m.appendAt(t, m.now-1-time.Duration(arg%3), float64(arg))
			case 2: // settle; new logs take the pools' chunks, as the next build's would
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
			case 4:
				m.appendAt(t, longGap(m.now, int(arg)), float64(arg))
			}
		}
		held, seen := 0, map[unsafe.Pointer]string{}
		countChunks(t, &m.pts.t.w, "the live series times", seen, &held)
		countChunks(t, &m.pts.v, "the live series values", seen, &held)
		countChunks(t, &m.tl.w, "the live time log", seen, &held)
		countChunks(t, &m.dl.t.w, "the live departure times", seen, &held)
		countChunks(t, &m.dl.r, "the live departure rests", seen, &held)
		countFree(t, &lp.deltas, "the delta pool", seen)
		countFree(t, &lp.values, "the value pool", seen)
		countFree(t, &lp.deps, "the departure pool", seen)
		if held != lp.held {
			t.Fatalf("the live logs hold %d B of chunks, the pools count %d B taken", held, lp.held)
		}
		logs.settle()
		for _, s := range append(settled, m) {
			s.check(t)
		}
	})
}

// countChunks adds the bytes of l's chunks to *held and notes each chunk
// in seen, failing if one was seen before: no chunk may be on two lists.
func countChunks[T any](t *testing.T, l *chunkLog[T], where string, seen map[unsafe.Pointer]string, held *int) {
	t.Helper()
	var e T
	l.each(func(d []T) {
		noteChunk(t, unsafe.Pointer(unsafe.SliceData(d[:1])), where, seen)
		*held += cap(d) * int(unsafe.Sizeof(e))
	})
}

// countFree notes the chunks on p's free lists in seen.
func countFree[T any](t *testing.T, p *chunkPool[T], where string, seen map[unsafe.Pointer]string) {
	t.Helper()
	for _, k := range p.free {
		for ; k != nil; k = k.next {
			noteChunk(t, unsafe.Pointer(unsafe.SliceData(k.data[:1])), where, seen)
		}
	}
}

func noteChunk(t *testing.T, p unsafe.Pointer, where string, seen map[unsafe.Pointer]string) {
	t.Helper()
	if first, ok := seen[p]; ok {
		t.Fatalf("a chunk is on two lists: %s and %s", first, where)
	}
	seen[p] = where
}
