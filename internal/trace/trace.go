// Package trace provides the time-series and event-log containers the
// instrumentation writes and the analysis reads: queue lengths, window
// sizes, drops, and packet departures.
//
// Series are step functions: a point (t, v) means the quantity took value
// v at time t and held it until the next point. That matches how queue
// lengths and congestion windows actually evolve, and lets the analysis
// resample them onto uniform grids without interpolation artifacts.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tahoedyn/internal/packet"
)

// Point is one sample of a step-function time series.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only step-function time series.
type Series struct {
	// Name labels the series in plots and TSV exports.
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Append records that the series took value v at time t. Appends must be
// in nondecreasing time order; equal-time appends overwrite so the series
// stores the final value at each instant.
func (s *Series) Append(t time.Duration, v float64) {
	if n := len(s.Points); n > 0 {
		if last := s.Points[n-1]; t < last.T {
			panic(fmt.Sprintf("trace: series %q append at %v before last point %v", s.Name, t, last.T))
		} else if t == last.T {
			s.Points[n-1].V = v
			return
		}
	}
	s.Points = append(s.Points, Point{t, v})
}

// Len returns the number of stored points.
func (s *Series) Len() int { return len(s.Points) }

// Last returns the final point of the series, and false when it is
// empty. It is the O(1) "where did this trace end up" accessor the
// metrics export uses.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// At returns the series value at time t: the value of the last point at
// or before t, or 0 before the first point.
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Max returns the maximum value in [from, to], accounting for the value
// held entering the window. It returns 0 for an empty series.
func (s *Series) Max(from, to time.Duration) float64 {
	max := s.At(from)
	for _, p := range s.window(from, to) {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// Min returns the minimum value in [from, to], like Max.
func (s *Series) Min(from, to time.Duration) float64 {
	min := s.At(from)
	for _, p := range s.window(from, to) {
		if p.V < min {
			min = p.V
		}
	}
	return min
}

// window returns the points with from < T <= to.
func (s *Series) window(from, to time.Duration) []Point {
	lo := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > from })
	hi := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > to })
	return s.Points[lo:hi]
}

// Cursor walks a series at nondecreasing query times in amortized O(1)
// per query, where At would pay a binary search each call. Analysis
// loops that scan a series in time order (resampling, TSV export,
// correlation grids) should take a cursor once and advance it.
//
// The zero Cursor is not usable; obtain one from Series.Cursor. The
// series must not be appended to while a cursor is in use.
type Cursor struct {
	pts []Point
	i   int // number of points consumed: pts[:i] have T <= last query
}

// Cursor returns a cursor positioned before the first point.
func (s *Series) Cursor() Cursor { return Cursor{pts: s.Points} }

// At returns the series value at time t, like Series.At, but t must be
// >= every earlier query on this cursor. The cursor only moves forward,
// so a full time-ordered scan costs O(points + queries) in total.
func (c *Cursor) At(t time.Duration) float64 {
	for c.i < len(c.pts) && c.pts[c.i].T <= t {
		c.i++
	}
	if c.i == 0 {
		return 0
	}
	return c.pts[c.i-1].V
}

// Sample resamples the step function onto a uniform grid of the given
// step over [from, to), returning one value per grid cell. The grid is
// walked with a cursor, so the cost is linear in points + cells rather
// than cells × log(points).
func (s *Series) Sample(from, to time.Duration, step time.Duration) []float64 {
	if step <= 0 {
		panic("trace: non-positive sample step")
	}
	n := int((to - from) / step)
	if n < 0 {
		n = 0
	}
	out := make([]float64, n)
	cur := s.Cursor()
	for i := range out {
		out[i] = cur.At(from + time.Duration(i)*step)
	}
	return out
}

// TimeAverage integrates the step function over [from, to] and divides by
// the window length, giving the time-weighted mean (e.g. mean queue
// length).
func (s *Series) TimeAverage(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var sum float64
	cur := s.At(from)
	last := from
	for _, p := range s.window(from, to) {
		sum += cur * float64(p.T-last)
		cur = p.V
		last = p.T
	}
	sum += cur * float64(to-last)
	return sum / float64(to-from)
}

// Correlate computes the Pearson correlation of two series resampled on a
// shared grid. It returns 0 when either series is constant over the
// window (correlation undefined).
func Correlate(a, b *Series, from, to, step time.Duration) float64 {
	x := a.Sample(from, to, step)
	y := b.Sample(from, to, step)
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// DropEvent records one packet discarded by a drop-tail queue.
type DropEvent struct {
	T    time.Duration
	Conn int
	Seq  int
	Kind packet.Kind
	// Port names the output port that dropped the packet.
	Port string
}

// Departure records one packet's last bit leaving a traced port, in
// departure order — the raw material of the clustering analysis.
//
// A Departure is 16 bytes, since a measured run keeps one per packet per
// trunk port: T, the sequence number as an int32 — int32(p.Seq), the
// value the trace store holds for the same packet — and one uint32 with
// the connection in its upper 31 bits and the kind in its lowest bit.
// NewDeparture builds one; Conn and Kind read the shared word back.
type Departure struct {
	T   time.Duration
	Seq int32
	ck  uint32
}

// NewDeparture returns the departure of connection conn's packet of the
// given kind and sequence number at time t. conn must lie in
// [0, 2³¹) and kind be Data or Ack; seq is kept as int32(seq).
func NewDeparture(t time.Duration, conn int, kind packet.Kind, seq int) Departure {
	return Departure{T: t, Seq: int32(seq), ck: uint32(conn)<<1 | uint32(kind&1)}
}

// Conn returns the departing packet's connection.
func (d Departure) Conn() int { return int(d.ck >> 1) }

// Kind returns whether the departing packet was data or an ACK.
func (d Departure) Kind() packet.Kind { return packet.Kind(d.ck & 1) }
