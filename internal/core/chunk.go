package core

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

// A per-run log is appended into chunks from its region's pool (DESIGN.md
// §11): the first holds chunkFirst elements, each next one twice as many,
// up to chunkFirst<<9 elements or chunkBytes, whichever is less. A log
// therefore holds at most one partly filled chunk and never more than
// about twice what it wrote, and growing it copies nothing. Nothing sizes
// a log in advance.
const (
	chunkFirst   = 16       // elements in a log's first chunk
	chunkBytes   = 64 << 10 // the size chunks of 8-byte and larger elements grow to and stay at
	chunkClasses = 10       // chunkFirst<<9 elements: chunkBytes of 8-byte elements, half of it of 4-byte ones
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
	full       int           // elements in the chunks before the last
	pool       *chunkPool[T] // nil once settled
	out        *[]T          // where the log settles; nil: it settles nowhere, or its owner decodes it
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
		l.full += len(l.cur)
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

// len returns the number of elements the log holds.
func (l *chunkLog[T]) len() int { return l.full + len(l.cur) }

// flush records the last chunk's elements in it, so that its chunks can
// be read.
func (l *chunkLog[T]) flush() {
	if l.tail != nil {
		l.tail.data = l.cur
	}
}

// each calls fn with the elements of each of the log's chunks in order.
func (l *chunkLog[T]) each(fn func([]T)) {
	l.flush()
	for k := l.head; k != nil; k = k.next {
		fn(k.data)
	}
}

// chunkCursor reads a chunk log's elements back in order.
type chunkCursor[T any] struct {
	k *chunk[T]
	i int
}

// cursor returns a cursor at the log's first element.
func (l *chunkLog[T]) cursor() chunkCursor[T] {
	l.flush()
	return chunkCursor[T]{k: l.head}
}

// next returns the element at the cursor and steps past it; there must
// be one.
func (c *chunkCursor[T]) next() T {
	if c.i == len(c.k.data) {
		c.k, c.i = c.k.next, 0
	}
	c.i++
	return c.k.data[c.i-1]
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
		if n := l.len(); n > 0 || !l.nilIfEmpty {
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
	l.pool, l.head, l.tail, l.cur, l.full = nil, nil, nil, nil, 0
}

// deltaEscape is the delta word that stands for a time written whole:
// the two words after it hold the time's 64 bits, the high word first.
const deltaEscape = math.MaxUint32

// timeLog is a per-run log of times as a chunk log of 4-byte words: each
// time is its delta from the one before it (the first, from 0). A gap of
// deltaEscape ns (4.29 s) or more, or a step back, is written as
// deltaEscape and the time whole, three words in all. The log settles at
// *out, decoded; with out nil its owner decodes it.
type timeLog struct {
	w    chunkLog[uint32]
	last time.Duration // the last time added
	far  int           // the times written whole
	out  *[]time.Duration
}

// add appends t. A hook calls put and addSlow itself, so that put
// inlines into it.
func (l *timeLog) add(t time.Duration) {
	if !l.put(t) {
		l.addSlow(t)
	}
}

// put appends t by the fast path — a delta under deltaEscape into room in
// the last chunk — and reports whether it could.
func (l *timeLog) put(t time.Duration) bool {
	d, ok := l.fits(t)
	if ok {
		l.push(d, t)
	}
	return ok
}

// fits returns t's delta and whether it goes in by the fast path.
func (l *timeLog) fits(t time.Duration) (uint32, bool) {
	d := uint64(t - l.last)
	return uint32(d), d < deltaEscape && len(l.w.cur) < cap(l.w.cur)
}

// push appends t by its delta d, which fits.
func (l *timeLog) push(d uint32, t time.Duration) {
	l.w.cur = append(l.w.cur, d) // not in one assignment with last: this way it stores only the length
	l.last = t
}

// addSlow appends t when add's fast path does not: as a delta into a new
// chunk, whole, or to *out once the log has settled.
func (l *timeLog) addSlow(t time.Duration) {
	if l.settled() {
		if l.out != nil {
			*l.out = append(*l.out, t)
		}
		return
	}
	if d := uint64(t - l.last); d < deltaEscape {
		l.w.add(uint32(d))
	} else {
		l.w.add(deltaEscape)
		l.w.add(uint32(uint64(t) >> 32))
		l.w.add(uint32(t))
		l.far++
	}
	l.last = t
}

// settled reports whether the run's ownership of the log has ended.
func (l *timeLog) settled() bool { return l.w.pool == nil }

// len returns the number of times the log holds.
func (l *timeLog) len() int { return l.w.len() - 2*l.far }

// settle decodes the log into *out at exact length, unless out is nil,
// and gives its chunks back.
func (l *timeLog) settle() {
	if l.settled() {
		return
	}
	if l.out != nil {
		s, c := make([]time.Duration, l.len()), l.cursor()
		for i, ts := 0, c.batch(); len(ts) > 0; ts = c.batch() {
			i += copy(s[i:], ts)
		}
		*l.out = s
	}
	l.w.release()
}

// timeBatch is the number of times a timeCursor decodes at a go.
const timeBatch = 256

// timeCursor reads a timeLog's times back in order, a batch at a time,
// each time a running sum of the deltas.
type timeCursor struct {
	k    *chunk[uint32] // the chunk read from
	i    int            // the next word's index in k
	t    time.Duration  // the last time read
	left int            // times not read yet
	buf  [timeBatch]time.Duration
}

// cursor returns a cursor at the log's first time.
func (l *timeLog) cursor() timeCursor {
	l.w.flush()
	return timeCursor{k: l.w.head, left: l.len()}
}

// batch decodes the next times, up to timeBatch of them, and returns
// them in the cursor's buffer: none once all are read.
func (c *timeCursor) batch() []time.Duration {
	ts := c.buf[:min(c.left, timeBatch)]
	k, i, t := c.k, c.i, c.t // locals: the stores into ts cannot alias them
	for n := range ts {
		if i == len(k.data) {
			k, i = k.next, 0
		}
		d := k.data[i]
		i++
		if d != deltaEscape {
			t += time.Duration(d)
		} else { // the time whole, in the next two words
			var w uint64
			for range 2 {
				if i == len(k.data) {
					k, i = k.next, 0
				}
				w, i = w<<32|uint64(k.data[i]), i+1
			}
			t = time.Duration(w)
		}
		ts[n] = t
	}
	c.k, c.i, c.t, c.left = k, i, t, c.left-len(ts)
	return ts
}

// depRest is a departure but for its time: what a departure log keeps
// beside the time. ck packs the connection and kind as
// trace.NewDeparture does.
type depRest struct {
	seq int32
	ck  uint32
}

// newDepRest returns the rest of p's departure.
func newDepRest(p *packet.Packet) depRest {
	return depRest{int32(p.Seq), uint32(p.Conn)<<1 | uint32(p.Kind&1)}
}

// at returns the departure r at time t.
func (r depRest) at(t time.Duration) trace.Departure {
	return trace.NewDeparture(t, int(r.ck>>1), packet.Kind(r.ck&1), int(r.seq))
}

// depLog is a port's departure log: the times in a timeLog, the rest of
// each departure in a chunk log beside it. It settles at *out, after
// which addSlow appends there: a settled log has no chunk to put into.
type depLog struct {
	t   timeLog
	r   chunkLog[depRest]
	out *[]trace.Departure
}

// put appends the departure r at t by the fast path, a time that fits and
// room in the last chunk of rests, and reports whether it could.
func (l *depLog) put(t time.Duration, r depRest) bool {
	d, ok := l.t.fits(t)
	if ok = ok && len(l.r.cur) < cap(l.r.cur); ok {
		l.t.push(d, t)
		l.r.cur = append(l.r.cur, r)
	}
	return ok
}

// addSlow appends the departure when put does not: into new chunks, or
// to *out once the log has settled.
func (l *depLog) addSlow(t time.Duration, r depRest) {
	if l.t.settled() {
		*l.out = append(*l.out, r.at(t))
		return
	}
	l.t.add(t)
	l.r.add(r)
}

// settle decodes the departures into *out at exact length and gives the
// chunks back.
func (l *depLog) settle() {
	if l.t.settled() {
		return
	}
	s, tc, rc, i := make([]trace.Departure, l.r.len()), l.t.cursor(), l.r.cursor(), 0
	for ts := tc.batch(); len(ts) > 0; ts = tc.batch() {
		for _, t := range ts {
			s[i] = rc.next().at(t)
			i++
		}
	}
	*l.out = s
	l.t.w.release()
	l.r.release()
}

// seriesLog is a trace.Series' points as a chunk log, appended by
// Series.Append's rule: a point at the last point's time replaces its
// value, one before it panics. The times are in a timeLog, the values in
// a chunk log beside it.
type seriesLog struct {
	t          timeLog
	v          chunkLog[float64]
	s          *trace.Series
	nilIfEmpty bool // settle an empty series as nil Points rather than empty
}

// add appends the point (t, v). Its fast path is a step forward within
// the last chunks.
func (l *seriesLog) add(t time.Duration, v float64) {
	if d, ok := l.t.fits(t); ok && d > 0 && len(l.v.cur) < cap(l.v.cur) {
		l.t.push(d, t)
		l.v.cur = append(l.v.cur, v)
		return
	}
	l.addSlow(t, v)
}

// addSlow appends (t, v) when add's fast path does not: at the last
// point's time, into new chunks, after the log settled, or — a step
// back — not at all.
func (l *seriesLog) addSlow(t time.Duration, v float64) {
	switch n := len(l.v.cur); {
	case n > 0 && t == l.t.last:
		l.v.cur[n-1] = v
	case n > 0 && t < l.t.last:
		panic(fmt.Sprintf("trace: series %q append at %v before last point %v", l.s.Name, t, l.t.last))
	case l.t.settled(): // n == 0: a settled log holds no chunk
		l.s.Append(t, v)
	default:
		l.t.add(t)
		l.v.add(v)
	}
}

// settle decodes the points into the series at exact length and gives
// the chunks back.
func (l *seriesLog) settle() {
	if l.t.settled() {
		return
	}
	var pts []trace.Point
	if n := l.v.len(); n > 0 || !l.nilIfEmpty {
		pts = make([]trace.Point, n)
		tc, vc, i := l.t.cursor(), l.v.cursor(), 0
		for ts := tc.batch(); len(ts) > 0; ts = tc.batch() {
			for _, t := range ts {
				pts[i] = trace.Point{T: t, V: vc.next()}
				i++
			}
		}
	}
	l.s.Points = pts
	l.t.w.release()
	l.v.release()
}

// queueLog is a measured port's queue series while the run owns it. The
// port's length changes at an admission — by one, or by none when the
// admission evicted a waiting packet — and at a departure, by minus one,
// and the port's departure log has the departures. So the log keeps the
// time of each admission and, apart, the time of each eviction, a change
// of minus one at its admission's instant, and settle rebuilds the points
// from the three: a point an instant, the length after the instant's last
// change, as Series.Append keeps them. A port that never evicts keeps an
// empty eviction log, which takes no chunk. The port's hooks count the
// instants as they come, so that settle sizes the series without a pass.
// Once the log has settled, the hooks append to the series itself.
type queueLog struct {
	timeLog
	evicts   timeLog
	deps     *[]trace.Departure // the port's departures: that log settles first
	s        *trace.Series
	at       time.Duration // the instant of the port's last change
	instants int           // the instants of changes after 0: the series' points but (0, 0)
}

// changed counts a change of the port's length at t: an admission or a
// departure.
func (l *queueLog) changed(t time.Duration) {
	if t != l.at {
		l.at, l.instants = t, l.instants+1
	}
}

// evicted logs an eviction at t, unless the log has settled.
func (l *queueLog) evicted(t time.Duration) {
	if !l.settled() {
		l.evicts.add(t)
	}
}

// admitSlow logs an admission when put does not: into a new chunk, or,
// once the log has settled, as a point of n packets in the series.
func (l *queueLog) admitSlow(t time.Duration, n int) {
	if l.settled() {
		l.s.Append(t, float64(n))
		return
	}
	l.addSlow(t)
}

// settle rebuilds the series at its exact length, a point for each
// instant the hooks counted.
func (l *queueLog) settle() {
	if l.settled() {
		return
	}
	l.s.Points = make([]trace.Point, l.instants+1)
	if n := l.merge(l.s.Points); n != len(l.s.Points) {
		panic(fmt.Sprintf("core: queue series %q rebuilt with %d points, its port's hooks counted %d", l.s.Name, n, len(l.s.Points)))
	}
	l.w.release()
	l.evicts.w.release()
}

// merge walks the admissions, evictions and departures in time order
// from the series' first point (0, 0), writes a point an instant into
// out, and returns the number of points. Changes at one instant may be
// taken in any order: only the length after them all is kept. An
// eviction comes at the instant of an admission, so it is taken with the
// first admission at or after it.
func (l *queueLog) merge(out []trace.Point) int {
	m, deps, j := queueMerge{out: out}, *l.deps, 0
	ac, ec := l.cursor(), l.evicts.cursor()
	evs, e := ec.batch(), 0 // evs[e] is the next eviction's time
	for ts := ac.batch(); len(ts) > 0; ts = ac.batch() {
		for _, t := range ts {
			for ; j < len(deps) && deps[j].T < t; j++ {
				m.change(deps[j].T, -1)
			}
			m.change(t, 1)
			for e < len(evs) && evs[e] <= t {
				m.change(t, -1)
				if e++; e == len(evs) {
					evs, e = ec.batch(), 0
				}
			}
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
		m.out[m.n] = trace.Point{T: m.at, V: float64(m.q)}
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

// deltas returns an empty delta log that appends from lp and settles at
// *out.
func deltas(lp *logPools, out *[]time.Duration) timeLog {
	return timeLog{w: chunkLog[uint32]{pool: &lp.deltas}, out: out}
}

// times makes a time log that appends from lp and settles at *out, and
// lists it in l.
func (l *runLogs) times(lp *logPools, out *[]time.Duration) *timeLog {
	tl := new(timeLog)
	*tl = deltas(lp, out)
	l.all = append(l.all, tl)
	return tl
}

// departures makes a departure log that appends from lp and settles at
// *out, and lists it in l.
func (l *runLogs) departures(lp *logPools, out *[]trace.Departure) *depLog {
	dl := &depLog{deltas(lp, nil), chunkLog[depRest]{pool: &lp.deps}, out}
	l.all = append(l.all, dl)
	return dl
}

// series makes the log of s's points, appending from lp, and lists it
// in l.
func (l *runLogs) series(lp *logPools, s *trace.Series, nilIfEmpty bool) *seriesLog {
	sl := &seriesLog{deltas(lp, nil), chunkLog[float64]{pool: &lp.values}, s, nilIfEmpty}
	l.all = append(l.all, sl)
	return sl
}

// queue makes the admission log of the port whose departures settle at
// *deps, appending from lp, and lists it in l after that log.
func (l *runLogs) queue(lp *logPools, deps *[]trace.Departure, s *trace.Series) *queueLog {
	q := &queueLog{timeLog: deltas(lp, nil), evicts: deltas(lp, nil), deps: deps, s: s}
	l.all = append(l.all, q)
	return q
}

func (l *runLogs) settle() {
	for _, log := range l.all {
		log.settle()
	}
}
