package core

import (
	"fmt"
	"time"
	"unsafe"

	"tahoedyn/internal/trace"
)

// A per-run log is appended into chunks from its region's pool (DESIGN.md
// §11): the first holds chunkFirst elements, each next one twice as many,
// up to chunkBytes. A log therefore holds at most one partly filled chunk
// and never more than about twice what it wrote, and growing it copies
// nothing. Nothing sizes a log in advance.
const (
	chunkFirst   = 16       // elements in a log's first chunk
	chunkBytes   = 64 << 10 // the size chunks grow to and stay at
	chunkClasses = 10       // chunkFirst<<9 elements of the smallest element type, 8 bytes, is chunkBytes
)

// chunkCap returns the capacity of a class-c chunk of T.
func chunkCap[T any](c int) int {
	var e T
	return min(chunkFirst<<c, chunkBytes/int(unsafe.Sizeof(e)))
}

// chunk is one chunk of a log, or of a pool's free list of its class.
type chunk[T any] struct {
	data  []T // a log's elements; len 0 in the pool
	class int
	next  *chunk[T]
}

// chunkPool is one region's free chunks of one element type, a list per
// class. Only the region's goroutine takes from it.
type chunkPool[T any] struct {
	free [chunkClasses]*chunk[T]
	held *int // the region's count of chunk bytes its logs took this run
}

// take hands out a class-c chunk: a free one, or a new one.
func (p *chunkPool[T]) take(c int) *chunk[T] {
	k := p.free[c]
	if k != nil {
		p.free[c], k.next = k.next, nil
	} else {
		k = &chunk[T]{data: make([]T, 0, chunkCap[T](c)), class: c}
	}
	var e T
	*p.held += cap(k.data) * int(unsafe.Sizeof(e))
	return k
}

// give puts a list of chunks, linked by next, back on their free lists.
// Elements stay as they are: all they reference is port and cause names.
func (p *chunkPool[T]) give(k *chunk[T]) {
	for k != nil {
		next := k.next
		k.data, k.next, p.free[k.class] = k.data[:0], p.free[k.class], k
		k = next
	}
}

// chunkLog is one per-run log. While the run owns it, add appends into
// its chunks; settle hands the Result an exact-length copy at *out and
// the chunks back to the pool, and every later add appends to *out: a
// Sim run on past its Finish touches only the Result's own copy.
type chunkLog[T any] struct {
	cur        []T // the last chunk's elements; len == cap: the next add takes a chunk
	head, tail *chunk[T]
	pool       *chunkPool[T] // nil once settled
	out        *[]T          // where the log settles; nil: it settles nowhere
	nilIfEmpty bool          // settle an empty log as nil rather than empty
}

// newLog makes a log that appends from pool and settles at *out, and
// lists it in logs.
func newLog[T any](logs *runLogs, pool *chunkPool[T], out *[]T, nilIfEmpty bool) *chunkLog[T] {
	l := &chunkLog[T]{pool: pool, out: out, nilIfEmpty: nilIfEmpty}
	logs.all = append(logs.all, l)
	return l
}

// add appends v. Its fast path is small enough to inline into a hook.
func (l *chunkLog[T]) add(v T) {
	if len(l.cur) < cap(l.cur) {
		l.cur = append(l.cur, v)
		return
	}
	l.addSlow(v)
}

// addSlow appends v to a new chunk, twice the size of the last one up to
// chunkBytes, or to *out once the log has settled.
func (l *chunkLog[T]) addSlow(v T) {
	if l.pool == nil {
		if l.out != nil {
			*l.out = append(*l.out, v)
		}
		return
	}
	c := 0
	if l.tail != nil {
		l.tail.data = l.cur
		if c = l.tail.class; c+1 < chunkClasses && chunkCap[T](c+1) > chunkCap[T](c) {
			c++
		}
	}
	k := l.pool.take(c)
	if l.tail == nil {
		l.head = k
	} else {
		l.tail.next = k
	}
	l.tail, l.cur = k, append(k.data, v)
}

// each calls fn with the elements of each of the log's chunks in order.
func (l *chunkLog[T]) each(fn func([]T)) {
	if l.tail != nil {
		l.tail.data = l.cur
	}
	for k := l.head; k != nil; k = k.next {
		fn(k.data)
	}
}

// settle ends the run's ownership of the log: *out gets its elements at
// exact length, the chunks go back to the pool, and later adds append to
// *out. An abandoned Sim never settles: its chunks are garbage with it.
func (l *chunkLog[T]) settle() {
	if l.pool == nil {
		return
	}
	if l.out != nil {
		var s []T
		n := 0
		l.each(func(d []T) { n += len(d) })
		if n > 0 || !l.nilIfEmpty {
			s = make([]T, 0, n)
			l.each(func(d []T) { s = append(s, d...) })
		}
		*l.out = s
	}
	l.release()
}

// release gives the log's chunks back to the pool: the log has settled.
func (l *chunkLog[T]) release() {
	l.pool.give(l.head)
	l.pool, l.head, l.tail, l.cur = nil, nil, nil, nil
}

// seriesLog is a trace.Series' points as a chunk log, appended by
// Series.Append's rule: a point at the last point's time replaces its
// value, one before it panics.
type seriesLog struct {
	chunkLog[trace.Point]
	s *trace.Series
}

// add appends the point (t, v). Its fast path, a step forward within the
// last chunk, is small enough to inline into a hook.
func (l *seriesLog) add(t time.Duration, v float64) {
	if n := len(l.cur); n > 0 && n < cap(l.cur) && t > l.cur[n-1].T {
		l.cur = append(l.cur, trace.Point{T: t, V: v})
		return
	}
	l.addSlow(t, v)
}

// addSlow appends (t, v) when add's fast path does not: at the last
// point's time, into a new chunk, after the log settled, or — a step
// back — not at all.
func (l *seriesLog) addSlow(t time.Duration, v float64) {
	switch n := len(l.cur); {
	case n > 0 && t == l.cur[n-1].T:
		l.cur[n-1].V = v
	case n > 0 && t < l.cur[n-1].T:
		panic(fmt.Sprintf("trace: series %q append at %v before last point %v", l.s.Name, t, l.cur[n-1].T))
	case n == 0 && l.pool == nil: // settled
		l.s.Append(t, v)
	default:
		l.chunkLog.addSlow(trace.Point{T: t, V: v})
	}
}

// queueLog is a measured port's queue series while the run owns it. The
// port's length changes at an admission — by one, or by none when the
// admission evicted a waiting packet — and at a departure, by minus one,
// and the port's departure log has the departures. So the log keeps the
// time of each admission, ^T for one that evicted (sim time is never
// negative), and settle rebuilds the points from the two logs: a point
// an instant, the length after the instant's last change, as
// Series.Append keeps them. Once the log has settled (pool nil), the
// port's hooks append to the series itself.
type queueLog struct {
	chunkLog[time.Duration]
	deps *[]trace.Departure // the port's departures: that log settles first
	s    *trace.Series
}

// settle rebuilds the series at its exact length, in two passes of one
// merge: the first counts the points, the second writes them.
func (l *queueLog) settle() {
	if l.pool == nil {
		return
	}
	l.s.Points = make([]trace.Point, l.merge(nil))
	l.merge(l.s.Points)
	l.release()
}

// merge walks the admissions and the departures in time order from the
// series' first point (0, 0), writes a point an instant into out unless
// out is nil, and returns the number of points. Changes at one instant
// may be taken in any order: only the length after them all is kept.
func (l *queueLog) merge(out []trace.Point) int {
	m, deps, j := queueMerge{out: out}, *l.deps, 0
	if l.tail != nil {
		l.tail.data = l.cur
	}
	for k := l.head; k != nil; k = k.next {
		for _, t := range k.data {
			up := 1
			if t < 0 {
				t, up = ^t, 0
			}
			for ; j < len(deps) && deps[j].T < t; j++ {
				m.change(deps[j].T, -1)
			}
			m.change(t, up)
		}
	}
	for ; j < len(deps); j++ {
		m.change(deps[j].T, -1)
	}
	m.change(-1, 0) // write the last instant's point
	return m.n
}

// queueMerge is merge's state: the instant at hand and the length so far.
type queueMerge struct {
	out []trace.Point
	n   int // points written
	at  time.Duration
	q   int
}

// change applies a change of d at t; a later instant first writes the
// point of the one at hand.
func (m *queueMerge) change(t time.Duration, d int) {
	if t != m.at {
		if m.out != nil {
			m.out[m.n] = trace.Point{T: m.at, V: float64(m.q)}
		}
		m.n, m.at = m.n+1, t
	}
	m.q += d
}

// runLogs is every chunk log of one run, in the order the build made
// them; Finish settles them all.
type runLogs struct {
	all   []interface{ settle() }
	drops []*chunkLog[dropRec] // one a region: mergeDrops reads them, they settle nowhere
}

// series makes the chunk log of s's points and lists it in l.
func (l *runLogs) series(pool *chunkPool[trace.Point], s *trace.Series, nilIfEmpty bool) *seriesLog {
	sl := &seriesLog{chunkLog[trace.Point]{pool: pool, out: &s.Points, nilIfEmpty: nilIfEmpty}, s}
	l.all = append(l.all, sl)
	return sl
}

// queue makes the admission log of the port whose departures settle at
// *deps, appending from pool, and lists it in l after that log.
func (l *runLogs) queue(pool *chunkPool[time.Duration], deps *[]trace.Departure, s *trace.Series) *queueLog {
	q := &queueLog{chunkLog[time.Duration]{pool: pool}, deps, s}
	l.all = append(l.all, q)
	return q
}

func (l *runLogs) settle() {
	for _, log := range l.all {
		log.settle()
	}
}
