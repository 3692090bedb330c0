package tstore

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"tahoedyn/internal/obs"
)

// ErrStop, returned from a Scan callback, aborts the scan without
// error — "I have what I need".
var ErrStop = errors.New("tstore: stop scan")

// Query selects a slice of a trace: a half-open time window
// [From, To), the obs filter (connection, event-type bitmask), and
// optionally a single location by name. The zero Query matches
// everything.
type Query struct {
	// From and To bound event times: From ≤ T < To. To == 0 means
	// unbounded above.
	From, To time.Duration
	// Filter is the standard obs connection/type filter.
	Filter obs.Filter
	// Loc, when non-empty, matches only events at that location
	// (a port name like "sw0->sw1" — see Scanner.Locs).
	Loc string
}

// locID resolves q.Loc against a location table: (-1, true) for "any
// location", (id, true) for a known name, and ok=false when the name
// is absent — no event can match.
func (q Query) locID(locs []string) (int, bool) {
	if q.Loc == "" {
		return -1, true
	}
	for i, n := range locs {
		if n == q.Loc {
			return i, true
		}
	}
	return 0, false
}

// predicates returns q's per-event tests, named by the column each one
// reads. The time test is always on: the zero From already excludes
// negative times.
func (q Query) predicates(locID int) colSet {
	open := colT
	if locID >= 0 {
		open |= colLoc
	}
	if q.Filter.Types != 0 {
		open |= colType
	}
	if q.Filter.Conn != 0 {
		open |= colConn
	}
	return open
}

// match reports whether one event passes those predicates of q that
// are in open, with q.Loc already resolved to locID. It reads no field
// of ev outside open.
func (q Query) match(ev *obs.Event, locID int, open colSet) bool {
	if open&colT != 0 && (ev.T < q.From || (q.To > 0 && ev.T >= q.To)) {
		return false
	}
	if open&colLoc != 0 && int(ev.Loc) != locID {
		return false
	}
	if open&colType != 0 && q.Filter.Types&(1<<ev.Type) == 0 {
		return false
	}
	return open&colConn == 0 || int(ev.Conn) == q.Filter.Conn
}

// typesIn returns the type mask a chunk decode may abandon on: q's,
// when the type predicate is among the open ones.
func (q Query) typesIn(open colSet) uint32 {
	if open&colType != 0 {
		return q.Filter.Types
	}
	return 0
}

// Scanner is a streaming event source a query runs over: the on-disk
// Store, or a SliceSource wrapping an in-memory trace. Scan streams
// matching events in time order through fn; the *obs.Event may point
// into a reused buffer, so implementations' callers copy to retain.
type Scanner interface {
	Scan(q Query, fn func(*obs.Event) error) error
	Locs() []string
}

// SliceSource adapts an in-memory trace (a MemorySink capture) to the
// Scanner interface: the reference the Store's scans are tested against.
type SliceSource struct {
	LocTable []string
	Events   []obs.Event
}

func (s *SliceSource) Locs() []string { return s.LocTable }

func (s *SliceSource) Scan(q Query, fn func(*obs.Event) error) error {
	locID, ok := q.locID(s.LocTable)
	if !ok {
		return nil
	}
	open := q.predicates(locID)
	for i := range s.Events {
		ev := &s.Events[i]
		if !q.match(ev, locID, open) {
			continue
		}
		if err := fn(ev); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
	return nil
}

// Count returns the number of events matching q. For a Store it
// answers from the footer index wherever a chunk is entirely inside or
// outside the query, reading only boundary chunks.
func Count(sc Scanner, q Query) (uint64, error) {
	if s, ok := sc.(*Store); ok {
		return s.Count(q)
	}
	var n uint64
	err := sc.Scan(q, func(*obs.Event) error { n++; return nil })
	return n, err
}

// Count returns the number of events matching q, consulting the index
// first: chunks the query cannot touch are skipped, chunks the query
// fully covers contribute their counts without being read, and only
// boundary chunks are decoded.
func (s *Store) Count(q Query) (uint64, error) {
	locID, ok := q.locID(s.locs)
	if !ok {
		return 0, nil
	}
	var n uint64
	sc := s.getScratch()
	defer s.putScratch(sc)
	for i := range s.index {
		c := &s.index[i]
		if !c.overlaps(q, locID) {
			if s.sorted && q.To > 0 && c.MinT >= q.To {
				break
			}
			continue
		}
		open := c.unsettled(q, locID)
		if open == 0 {
			n += uint64(c.Count)
			continue
		}
		events, err := s.readChunk(c, sc, open, q.typesIn(open))
		if err != nil {
			return n, err
		}
		for j := range events {
			if q.match(&events[j], locID, open) {
				n++
			}
		}
	}
	return n, nil
}

// WindowStat aggregates the events of one time window (for one
// location, when grouped).
type WindowStat struct {
	// Start is the window's inclusive lower bound; the window is
	// [Start, Start+Width).
	Start time.Duration
	// Count is the number of matching events.
	Count int64
	// Bytes sums the events' packet sizes — Count and Bytes over
	// Transmit events divided by the width are a link's packet and byte
	// throughput.
	Bytes int64
	// Sum, Min and Max aggregate the events' Val field (queue length,
	// cwnd, ... depending on the type queried). Min/Max are zero when
	// Count is zero.
	Sum, Min, Max float64
}

// Mean returns Sum/Count, or 0 for an empty window.
func (w *WindowStat) Mean() float64 {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / float64(w.Count)
}

// WindowOptions shapes a Windowed aggregation.
type WindowOptions struct {
	// Width is the window size; required.
	Width time.Duration
	// ByLoc groups results per location name; otherwise everything
	// aggregates into a single series keyed "".
	ByLoc bool
}

// fold is Scan for an aggregate that reads only the fields in cols of
// each event: a Store then decodes just those columns (and leaves the
// other fields unset); any other source scans as usual.
func fold(sc Scanner, q Query, cols colSet, fn func(*obs.Event) error) error {
	if s, ok := sc.(*Store); ok {
		_, err := s.scanCols(q, cols, fn)
		return err
	}
	return sc.Scan(q, fn)
}

// maxWindows bounds the windows of one Windowed group. A series is
// dense from q.From to its last event, so a width far too fine for the
// span of the trace — or one hostile timestamp — would otherwise ask
// for memory without limit.
const maxWindows = 1 << 24

// Windowed streams the events matching q into fixed-width time windows
// anchored at q.From and returns one WindowStat series per group
// (location name when o.ByLoc, else the single key ""). Memory is
// O(groups × windows) — proportional to simulated time, not to the
// event count — and events are read one chunk at a time. A window
// offset that overflows (q.From unbounded below) or a series beyond
// 2²⁴ windows is an error.
func Windowed(sc Scanner, q Query, o WindowOptions) (map[string][]WindowStat, error) {
	if o.Width <= 0 {
		return nil, fmt.Errorf("tstore: window width must be positive (got %v)", o.Width)
	}
	locs := sc.Locs()
	cols := colT | colSize | colVal
	// Groups are indexed by location id while events stream and named
	// once at the end. Ids that share a name share the group of the
	// first.
	var groupOf []int
	if o.ByLoc {
		cols |= colLoc
		groupOf = make([]int, len(locs))
		first := make(map[string]int, len(locs))
		for id, name := range locs {
			if g, ok := first[name]; ok {
				groupOf[id] = g
			} else {
				first[name], groupOf[id] = id, id
			}
		}
	}
	var groups [][]WindowStat
	err := fold(sc, q, cols, func(ev *obs.Event) error {
		g := 0
		if o.ByLoc {
			if g = int(ev.Loc); g < len(groupOf) {
				g = groupOf[g]
			}
		}
		// A matching event has T ≥ From, so a negative offset overflowed.
		off := ev.T - q.From
		if off < 0 {
			return fmt.Errorf("tstore: window offset of t=%v from %v overflows; bound the query below with From", ev.T, q.From)
		}
		if off/o.Width >= maxWindows {
			return fmt.Errorf("tstore: t=%v is more than %d windows of %v past %v; choose a wider window", ev.T, maxWindows, o.Width, q.From)
		}
		idx := int(off / o.Width) // below maxWindows: fits an int
		for len(groups) <= g {
			groups = append(groups, nil)
		}
		series := groups[g]
		for len(series) <= idx {
			series = append(series, WindowStat{Start: q.From + time.Duration(len(series))*o.Width})
		}
		w := &series[idx]
		if w.Count == 0 {
			w.Min, w.Max = ev.Val, ev.Val
		} else {
			if ev.Val < w.Min {
				w.Min = ev.Val
			}
			if ev.Val > w.Max {
				w.Max = ev.Val
			}
		}
		w.Count++
		w.Bytes += int64(ev.Size)
		w.Sum += ev.Val
		groups[g] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]WindowStat{}
	for g, series := range groups {
		switch {
		case series == nil:
		case !o.ByLoc:
			out[""] = series
		case g < len(locs):
			out[locs[g]] = series
		default:
			out[fmt.Sprintf("loc%d", g)] = series
		}
	}
	return out, nil
}

// maxExactSamples is the sample-buffer bound for Quantiles: up to this
// many values the answer is exact; past it the buffer seeds streaming
// P² estimators and is released, keeping memory constant however large
// the trace.
const maxExactSamples = 1 << 16

// Quantiles estimates quantiles of the Val field over the events
// matching q. probs are in (0, 1), e.g. {0.5, 0.9, 0.99}. The second
// result is the sample count; with n ≤ 65536 the quantiles are exact
// (nearest-rank on the sorted samples), beyond that each probability
// is tracked by a P² streaming estimator seeded from the first 65536
// samples, so memory stays bounded. Deterministic for a given stream.
func Quantiles(sc Scanner, q Query, probs []float64) ([]float64, uint64, error) {
	for _, p := range probs {
		if p <= 0 || p >= 1 {
			return nil, 0, fmt.Errorf("tstore: quantile probability %v outside (0, 1)", p)
		}
	}
	var (
		exact []float64
		est   []*p2sketch
		n     uint64
	)
	err := fold(sc, q, colVal, func(ev *obs.Event) error {
		n++
		if est == nil {
			if exact == nil {
				// Once, at the bound: grown by append, the buffer
				// allocated about three times its final size on the way.
				exact = make([]float64, 0, maxExactSamples+1)
			}
			exact = append(exact, ev.Val)
			if len(exact) > maxExactSamples {
				est = make([]*p2sketch, len(probs))
				for i, p := range probs {
					est[i] = newP2(p)
					for _, v := range exact {
						est[i].add(v)
					}
				}
				exact = nil
			}
			return nil
		}
		for _, e := range est {
			e.add(ev.Val)
		}
		return nil
	})
	if err != nil {
		return nil, n, err
	}
	out := make([]float64, len(probs))
	if est != nil {
		for i, e := range est {
			out[i] = e.value()
		}
		return out, n, nil
	}
	if len(exact) == 0 {
		return out, 0, nil
	}
	sort.Float64s(exact)
	for i, p := range probs {
		// Nearest-rank: the smallest value with cumulative frequency ≥ p.
		r := int(math.Ceil(p*float64(len(exact)))) - 1
		if r < 0 {
			r = 0
		}
		out[i] = exact[r]
	}
	return out, n, nil
}

// p2sketch is the P² streaming quantile estimator (Jain & Chlamtac,
// CACM 1985): five markers whose heights track the running p-quantile
// in O(1) memory, adjusted by a piecewise-parabolic fit as samples
// arrive.
type p2sketch struct {
	p   float64
	q   [5]float64 // marker heights
	n   [5]float64 // marker positions (1-based)
	np  [5]float64 // desired positions
	dn  [5]float64 // desired-position increments
	cnt int
}

func newP2(p float64) *p2sketch {
	s := &p2sketch{p: p}
	s.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return s
}

func (s *p2sketch) add(x float64) {
	if s.cnt < 5 {
		s.q[s.cnt] = x
		s.cnt++
		if s.cnt == 5 {
			sort.Float64s(s.q[:])
			for i := range s.n {
				s.n[i] = float64(i + 1)
				s.np[i] = 1 + 4*s.dn[i]
			}
		}
		return
	}
	s.cnt++

	// Locate the cell k with q[k] ≤ x < q[k+1], widening the extremes.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.n[i]++
	}
	for i := range s.np {
		s.np[i] += s.dn[i]
	}

	// Nudge interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.np[i] - s.n[i]
		if (d >= 1 && s.n[i+1]-s.n[i] > 1) || (d <= -1 && s.n[i-1]-s.n[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qn := s.parabolic(i, sign)
			if !(s.q[i-1] < qn && qn < s.q[i+1]) {
				qn = s.linear(i, sign)
			}
			s.q[i] = qn
			s.n[i] += sign
		}
	}
}

func (s *p2sketch) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.n[i+1]-s.n[i-1])*
		((s.n[i]-s.n[i-1]+d)*(s.q[i+1]-s.q[i])/(s.n[i+1]-s.n[i])+
			(s.n[i+1]-s.n[i]-d)*(s.q[i]-s.q[i-1])/(s.n[i]-s.n[i-1]))
}

func (s *p2sketch) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.n[j]-s.n[i])
}

// value returns the current quantile estimate.
func (s *p2sketch) value() float64 {
	if s.cnt == 0 {
		return 0
	}
	if s.cnt <= 5 {
		// Too few samples for the marker machinery: exact nearest-rank.
		tmp := append([]float64(nil), s.q[:s.cnt]...)
		sort.Float64s(tmp)
		r := int(math.Ceil(s.p*float64(len(tmp)))) - 1
		if r < 0 {
			r = 0
		}
		return tmp[r]
	}
	return s.q[2]
}
