package tstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
)

// synthTrace builds a deterministic, invariant-clean event stream
// modeling nPorts ports fed round-robin by nConns connections: every
// packet is enqueued, (maybe) sits, then transmits, with occasional
// arrival drops and cwnd/timeout value events sprinkled in.
func synthTrace(n, nPorts, nConns int, seed int64) ([]string, []obs.Event) {
	locs := make([]string, nPorts)
	for i := range locs {
		locs[i] = "port" + string(rune('A'+i))
	}
	rng := rand.New(rand.NewSource(seed))
	type pq struct {
		ids  []uint64
		qlen int
	}
	ports := make([]pq, nPorts)
	events := make([]obs.Event, 0, n)
	t := time.Duration(0)
	var nextID uint64 = 1
	for len(events) < n {
		t += time.Duration(rng.Intn(1000)) * time.Microsecond
		loc := rng.Intn(nPorts)
		conn := int32(1 + rng.Intn(nConns))
		p := &ports[loc]
		switch k := rng.Intn(10); {
		case k < 4: // arrival
			if p.qlen >= 8 { // full: arrival drop, queue unchanged
				events = append(events, obs.Event{T: t, Type: obs.Drop, Loc: obs.Loc(loc),
					Conn: conn, ID: nextID, Seq: int32(nextID), Size: 1000, Val: float64(p.qlen)})
			} else {
				p.ids = append(p.ids, nextID)
				p.qlen++
				events = append(events, obs.Event{T: t, Type: obs.Enqueue, Loc: obs.Loc(loc),
					Conn: conn, ID: nextID, Seq: int32(nextID), Size: 1000, Val: float64(p.qlen)})
			}
			nextID++
		case k < 8: // departure
			if p.qlen == 0 {
				continue
			}
			id := p.ids[0]
			events = append(events, obs.Event{T: t, Type: obs.Dequeue, Loc: obs.Loc(loc),
				Conn: conn, ID: id, Seq: int32(id), Size: 1000, Val: float64(p.qlen)})
			p.ids = p.ids[1:]
			p.qlen--
			events = append(events, obs.Event{T: t, Type: obs.Transmit, Loc: obs.Loc(loc),
				Conn: conn, ID: id, Seq: int32(id), Size: 1000, Val: float64(p.qlen)})
		case k < 9:
			events = append(events, obs.Event{T: t, Type: obs.CwndChange, Conn: conn,
				Val: float64(1 + rng.Intn(32))})
		default:
			events = append(events, obs.Event{T: t, Type: obs.Deliver, Loc: obs.Loc(loc),
				Conn: conn, ID: uint64(rng.Intn(100)), Size: 1000, Val: 0.5 * float64(rng.Intn(7))})
		}
	}
	return locs, events[:n]
}

// buildStore writes events through a Writer into memory and opens the
// result as a Store.
func buildStore(t testing.TB, locs []string, events []obs.Event, chunkN int) (*Store, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkEvents: chunkN})
	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Split into batches to exercise the batch path.
	for off := 0; off < len(events); off += 1000 {
		end := off + 1000
		if end > len(events) {
			end = len(events)
		}
		if err := w.Events(locs, events[off:end]); err != nil {
			t.Fatalf("Events: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b := buf.Bytes()
	s, err := NewStore(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s, b
}

func TestRoundTrip(t *testing.T) {
	locs, events := synthTrace(10000, 4, 8, 1)
	s, raw := buildStore(t, locs, events, 512)
	if got := s.TotalEvents(); got != uint64(len(events)) {
		t.Fatalf("TotalEvents = %d, want %d", got, len(events))
	}
	if len(s.Chunks()) < len(events)/512 {
		t.Fatalf("too few chunks: %d", len(s.Chunks()))
	}
	var got []obs.Event
	if err := s.Scan(Query{}, func(ev *obs.Event) error {
		got = append(got, *ev)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("scanned %d events, want %d", len(got), len(events))
	}
	storeLocs := s.Locs()
	for i := range got {
		want := events[i]
		g := got[i]
		// The store re-interns locations; compare by name.
		if storeLocs[g.Loc] != locs[want.Loc] {
			t.Fatalf("event %d: loc %q, want %q", i, storeLocs[g.Loc], locs[want.Loc])
		}
		g.Loc, want.Loc = 0, 0
		if g != want {
			t.Fatalf("event %d: got %+v, want %+v", i, g, want)
		}
	}
	// Compression sanity: the store should be well below 40 B/event raw.
	if raw := float64(len(raw)) / float64(len(events)); raw > 25 {
		t.Errorf("store spends %.1f bytes/event; expected columnar encoding below 25", raw)
	}
}

func TestEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.Close(); err != nil { // Close without Begin
		t.Fatalf("Close: %v", err)
	}
	s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if s.TotalEvents() != 0 || len(s.Chunks()) != 0 {
		t.Fatalf("empty store has %d events, %d chunks", s.TotalEvents(), len(s.Chunks()))
	}
	n := 0
	if err := s.Scan(Query{}, func(*obs.Event) error { n++; return nil }); err != nil || n != 0 {
		t.Fatalf("scan of empty store: n=%d err=%v", n, err)
	}
}

// bruteMatch filters events the slow way for cross-checking.
func bruteMatch(locs []string, events []obs.Event, q Query) []obs.Event {
	locID := -1
	if q.Loc != "" {
		locID = -2
		for i, n := range locs {
			if n == q.Loc {
				locID = i
			}
		}
	}
	var out []obs.Event
	for _, ev := range events {
		if locID == -2 {
			break
		}
		if ev.T < q.From || (q.To > 0 && ev.T >= q.To) {
			continue
		}
		if locID >= 0 && int(ev.Loc) != locID {
			continue
		}
		if !q.Filter.Match(ev.Type, int(ev.Conn)) {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// sameWindows compares two Windowed results exactly.
func sameWindows(a, b map[string][]WindowStat) bool {
	return maps.EqualFunc(a, b, slices.Equal[[]WindowStat])
}

// TestQueriesMatchBruteForce runs every query shape through Scan, Count
// and the folds and holds each to a brute-force filter (or to the same
// fold over the in-memory slice). The second trace has stretches that
// are uniform in connection and location, and in type, so that at the
// smaller chunk sizes the footer index settles some of a query's
// predicates for some chunks and leaves others to the per-event test;
// all the queries of a trace share one Store, hence one scan scratch,
// and the full scan of each query leaves every field of the scratch
// filled with another chunk's events for the projected folds that
// follow. A predicate or a fold that read a field its decode did not
// materialize would see those and disagree with the brute force.
func TestQueriesMatchBruteForce(t *testing.T) {
	locs, mixed := synthTrace(20000, 4, 8, 2)
	phased := append([]obs.Event(nil), mixed...)
	for i := 5000; i < 9000; i++ {
		phased[i].Conn, phased[i].Loc = 3, 1
	}
	for i := 12000; i < 15000; i++ {
		phased[i].Type = obs.Transmit
	}
	maxT := mixed[len(mixed)-1].T
	queries := []Query{
		{},
		{From: maxT / 4, To: maxT / 2},
		{Filter: obs.Filter{Types: 1 << obs.Drop}},
		{Filter: obs.Filter{Conn: 3}},
		{Loc: "portB"},
		{Loc: "missing-port"},
		{From: maxT / 3, To: 2 * maxT / 3, Filter: obs.Filter{Types: 1 << obs.Transmit, Conn: 2}, Loc: "portA"},
		{To: maxT / 8, Filter: obs.Filter{Types: 1<<obs.Enqueue | 1<<obs.Drop}},
		{Filter: obs.Filter{Types: 1 << obs.Transmit}},
		{Filter: obs.Filter{Conn: 3}, Loc: "portB"},
		{From: mixed[6000].T, To: mixed[14000].T, Filter: obs.Filter{Types: 1 << obs.Transmit, Conn: 3}},
		{From: mixed[13000].T, Filter: obs.Filter{Types: 1<<obs.Transmit | 1<<obs.Dequeue}, Loc: "portB"},
	}
	for _, tc := range []struct {
		name   string
		events []obs.Event
		chunkN int
	}{
		{"mixed/256", mixed, 256},
		{"phased/64", phased, 64},
		{"phased/256", phased, 256},
		{"phased/1000", phased, 1000},
		{"phased/one-chunk", phased, 1 << 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := tc.events
			s, _ := buildStore(t, locs, events, tc.chunkN)
			src := &SliceSource{LocTable: locs, Events: events}
			for qi, q := range queries {
				want := bruteMatch(locs, events, q)
				var got []obs.Event
				skipped, err := s.ScanStats(q, func(ev *obs.Event) error {
					got = append(got, *ev)
					return nil
				})
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: %d events, want %d", qi, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					g.Loc, w.Loc = 0, 0 // loc ids re-interned; names checked in TestRoundTrip
					if g != w {
						t.Fatalf("query %d event %d: got %+v want %+v", qi, i, g, w)
					}
				}
				n, err := s.Count(q)
				if err != nil || n != uint64(len(want)) {
					t.Fatalf("query %d: Count = %d (err %v), want %d", qi, n, err, len(want))
				}
				// Time-bounded queries must actually skip chunks (conn/loc
				// ranges legitimately span every chunk of the mixed trace).
				if (q.From > 0 || q.To > 0) && skipped == 0 && len(s.Chunks()) > 4 {
					t.Errorf("query %d: time-bounded query skipped no chunks", qi)
				}

				for _, byLoc := range []bool{false, true} {
					o := WindowOptions{Width: 50 * time.Millisecond, ByLoc: byLoc}
					fromStore, err := Windowed(s, q, o)
					if err != nil {
						t.Fatalf("query %d: Windowed(store): %v", qi, err)
					}
					fromSlice, err := Windowed(src, q, o)
					if err != nil {
						t.Fatalf("query %d: Windowed(slice): %v", qi, err)
					}
					if !sameWindows(fromStore, fromSlice) {
						t.Fatalf("query %d, by-loc %v: windows over the store differ from windows over the slice", qi, byLoc)
					}
					var count, bytes int64
					for _, ws := range fromStore {
						for i := range ws {
							count += ws[i].Count
							bytes += ws[i].Bytes
						}
					}
					var wantBytes int64
					for i := range want {
						wantBytes += int64(want[i].Size)
					}
					if count != int64(len(want)) || bytes != wantBytes {
						t.Fatalf("query %d, by-loc %v: windows hold %d events, %d bytes; want %d, %d", qi, byLoc, count, bytes, len(want), wantBytes)
					}
				}

				probs := []float64{0.1, 0.5, 0.99}
				qStore, nStore, err := Quantiles(s, q, probs)
				if err != nil {
					t.Fatalf("query %d: Quantiles(store): %v", qi, err)
				}
				qSlice, nSlice, err := Quantiles(src, q, probs)
				if err != nil {
					t.Fatalf("query %d: Quantiles(slice): %v", qi, err)
				}
				if nStore != uint64(len(want)) || nSlice != nStore || !slices.Equal(qStore, qSlice) {
					t.Fatalf("query %d: quantiles %v of %d samples over the store, %v of %d over the slice, want %d samples",
						qi, qStore, nStore, qSlice, nSlice, len(want))
				}
			}
		})
	}

	// The offline checker reads six of the nine columns: over a clean
	// trace it passes every event, and over a corrupted one it names the
	// same event as the check of the slice does — whole, with the fields
	// its fold left out.
	for _, chunkN := range []int{64, 1000} {
		s, _ := buildStore(t, locs, mixed, chunkN)
		if n, vio, err := Check(s, CheckOptions{}); err != nil || vio != nil || n != uint64(len(mixed)) {
			t.Fatalf("chunk %d: Check(clean store) = %d, %v, %v", chunkN, n, vio, err)
		}
		bad := append([]obs.Event(nil), mixed...)
		at := 0
		for i := 9000; ; i++ {
			if bad[i].Type == obs.Enqueue {
				bad[i].Val += 2
				at = i
				break
			}
		}
		s, _ = buildStore(t, locs, bad, chunkN)
		_, fromStore, err := Check(s, CheckOptions{})
		if err != nil || fromStore == nil {
			t.Fatalf("chunk %d: Check(corrupted store) = %v, %v", chunkN, fromStore, err)
		}
		_, fromSlice, _ := Check(&SliceSource{LocTable: locs, Events: bad}, CheckOptions{})
		if fromStore.Index != uint64(at) || fromStore.Event != bad[at] || fromStore.Error() != fromSlice.Error() {
			t.Fatalf("chunk %d: store check reports %v\nslice check reports %v\nevent %d is %+v", chunkN, fromStore, fromSlice, at, bad[at])
		}
	}
}

// TestConcurrentScansShareScratch runs eight goroutines of different
// folds over one Store, repeatedly, so that they take scratch from and
// return it to the store's free list while others decode: every result
// must equal the serial one. The race detector (CI's -race leg covers
// this package) checks the list itself.
func TestConcurrentScansShareScratch(t *testing.T) {
	locs, events := synthTrace(30000, 4, 8, 11)
	s, _ := buildStore(t, locs, events, 512)
	maxT := events[len(events)-1].T
	type result struct {
		n    uint64
		wins map[string][]WindowStat
		qs   []float64
		sum  uint64
	}
	folds := []func() (result, error){
		func() (result, error) {
			n, err := s.Count(Query{From: maxT / 7, Filter: obs.Filter{Types: 1 << obs.Drop}})
			return result{n: n}, err
		},
		func() (result, error) {
			n, err := s.Count(Query{To: maxT / 2, Filter: obs.Filter{Conn: 3}, Loc: "portC"})
			return result{n: n}, err
		},
		func() (result, error) {
			w, err := Windowed(s, Query{Filter: obs.Filter{Types: 1 << obs.Transmit}}, WindowOptions{Width: 20 * time.Millisecond, ByLoc: true})
			return result{wins: w}, err
		},
		func() (result, error) {
			w, err := Windowed(s, Query{From: maxT / 3, Loc: "portA"}, WindowOptions{Width: 5 * time.Millisecond})
			return result{wins: w}, err
		},
		func() (result, error) {
			qs, n, err := Quantiles(s, Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}, []float64{0.5, 0.9})
			return result{n: n, qs: qs}, err
		},
		func() (result, error) {
			n, vio, err := Check(s, CheckOptions{})
			if err == nil && vio != nil {
				err = vio
			}
			return result{n: n}, err
		},
		func() (result, error) {
			var r result
			err := s.Scan(Query{}, func(ev *obs.Event) error {
				r.n++
				r.sum += uint64(ev.T) ^ ev.ID ^ uint64(ev.Seq)<<32 ^ uint64(ev.Size)<<16 ^ uint64(ev.Conn)<<8 ^ uint64(ev.Loc)<<4 ^ uint64(ev.Type) ^ math.Float64bits(ev.Val)
				return nil
			})
			return r, err
		},
		func() (result, error) {
			var r result
			err := s.Scan(Query{From: maxT / 2, Filter: obs.Filter{Conn: 5}}, func(ev *obs.Event) error {
				r.n++
				r.sum += ev.ID
				return nil
			})
			return r, err
		},
	}
	serial := make([]result, len(folds))
	for i, f := range folds {
		var err error
		if serial[i], err = f(); err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for i, f := range folds {
		i, f := i, f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got, err := f()
				if err != nil {
					t.Errorf("fold %d: %v", i, err)
					return
				}
				want := serial[i]
				if got.n != want.n || got.sum != want.sum || !slices.Equal(got.qs, want.qs) || !sameWindows(got.wins, want.wins) {
					t.Errorf("fold %d, concurrent run %d: result differs from the serial one", i, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(s.free); n == 0 || n > maxFreeScratch {
		t.Errorf("%d scratch buffers on the free list after the scans, want 1..%d", n, maxFreeScratch)
	}
}

// TestScansReuseScratch pins the point of the free list: after its
// first scan, a store's scans and folds allocate no chunk buffers.
func TestScansReuseScratch(t *testing.T) {
	locs, events := synthTrace(20000, 4, 8, 12)
	s, _ := buildStore(t, locs, events, 2048)
	scan := func() {
		if err := s.Scan(Query{}, func(*obs.Event) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Count(Query{Filter: obs.Filter{Types: 1 << obs.Drop}}); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(10, scan); allocs > 2 {
		t.Errorf("a scan and a count over a warm store make %.0f allocations, want at most 2 (the callback closures)", allocs)
	}
}

// TestWindowedRejectsRunawaySeries covers the two ways a Windowed series
// used to grow without bound or index out of range: a From so far below
// the events that the window offset overflows (Check's own unbounded
// query is one), and a timestamp so far above From that the dense series
// would need more than 2²⁴ windows. Both are errors now, from the store
// and from a slice alike.
func TestWindowedRejectsRunawaySeries(t *testing.T) {
	locs, events := synthTrace(3000, 2, 4, 13)
	hostile := append([]obs.Event(nil), events...)
	hostile[len(hostile)-1].T = 1 << 62
	for _, tc := range []struct {
		name   string
		events []obs.Event
		q      Query
		want   string
	}{
		{"unbounded-from", events, Query{From: time.Duration(math.MinInt64)}, "overflows"},
		{"hostile-timestamp", hostile, Query{}, "choose a wider window"},
	} {
		s, _ := buildStore(t, locs, tc.events, 256)
		for _, sc := range []Scanner{s, &SliceSource{LocTable: locs, Events: tc.events}} {
			for _, byLoc := range []bool{false, true} {
				got, err := Windowed(sc, tc.q, WindowOptions{Width: time.Millisecond, ByLoc: byLoc})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s over %T, by-loc %v: %d groups, error %v; want an error containing %q", tc.name, sc, byLoc, len(got), err, tc.want)
				}
			}
		}
	}
	// A window wide enough for the span is still served.
	s, _ := buildStore(t, locs, hostile, 256)
	if _, err := Windowed(s, Query{}, WindowOptions{Width: 1 << 40}); err != nil {
		t.Errorf("a 2⁴⁰ ns window over a 2⁶² ns span: %v", err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	locs, events := synthTrace(5000, 2, 4, 3)
	s, _ := buildStore(t, locs, events, 128)
	n := 0
	if err := s.Scan(Query{}, func(*obs.Event) error {
		n++
		if n == 100 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 100 {
		t.Fatalf("ErrStop after %d events, want 100", n)
	}
}

func TestWindowed(t *testing.T) {
	locs, events := synthTrace(20000, 3, 4, 4)
	src := &SliceSource{LocTable: locs, Events: events}
	s, _ := buildStore(t, locs, events, 512)

	q := Query{Filter: obs.Filter{Types: 1 << obs.Transmit}}
	width := 10 * time.Millisecond
	fromSlice, err := Windowed(src, q, WindowOptions{Width: width, ByLoc: true})
	if err != nil {
		t.Fatalf("Windowed(slice): %v", err)
	}
	fromStore, err := Windowed(s, q, WindowOptions{Width: width, ByLoc: true})
	if err != nil {
		t.Fatalf("Windowed(store): %v", err)
	}
	if len(fromStore) != len(fromSlice) {
		t.Fatalf("store has %d groups, slice %d", len(fromStore), len(fromSlice))
	}
	var totBytes int64
	for name, ws := range fromStore {
		if len(ws) != len(fromSlice[name]) {
			t.Fatalf("group %q: %d windows vs %d", name, len(ws), len(fromSlice[name]))
		}
		for i := range ws {
			if ws[i] != fromSlice[name][i] {
				t.Fatalf("group %q window %d: %+v vs %+v", name, i, ws[i], fromSlice[name][i])
			}
			if want := time.Duration(i) * width; ws[i].Start != want {
				t.Fatalf("group %q window %d starts at %v, want %v", name, i, ws[i].Start, want)
			}
			totBytes += ws[i].Bytes
		}
	}
	want := bruteMatch(locs, events, q)
	if totBytes != int64(len(want))*1000 {
		t.Fatalf("windowed bytes %d, want %d", totBytes, len(want)*1000)
	}
}

func TestQuantilesExact(t *testing.T) {
	// 1000 Deliver events with Val = 0, 0.5, ..., known distribution.
	locs, events := synthTrace(30000, 2, 4, 5)
	src := &SliceSource{LocTable: locs, Events: events}
	q := Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}
	vals := []float64{}
	for _, ev := range bruteMatch(locs, events, q) {
		vals = append(vals, ev.Val)
	}
	got, n, err := Quantiles(src, q, []float64{0.5, 0.9})
	if err != nil {
		t.Fatalf("Quantiles: %v", err)
	}
	if n != uint64(len(vals)) {
		t.Fatalf("n = %d, want %d", n, len(vals))
	}
	// Exact path: cross-check against a sort.
	sorted := append([]float64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for i, p := range []float64{0.5, 0.9} {
		r := int(p*float64(len(sorted))+0.9999999) - 1
		if got[i] != sorted[r] {
			t.Fatalf("p=%g: got %g, want %g", p, got[i], sorted[r])
		}
	}
}

func TestQuantilesStreaming(t *testing.T) {
	// Uniform values 1..100, enough samples to trip the P² switch: the
	// estimates must land near the true quantiles.
	n := maxExactSamples * 3
	events := make([]obs.Event, n)
	rng := rand.New(rand.NewSource(7))
	for i := range events {
		events[i] = obs.Event{T: time.Duration(i), Type: obs.Deliver, Val: float64(1 + rng.Intn(100))}
	}
	src := &SliceSource{LocTable: []string{"x"}, Events: events}
	got, cnt, err := Quantiles(src, Query{}, []float64{0.5, 0.99})
	if err != nil {
		t.Fatalf("Quantiles: %v", err)
	}
	if cnt != uint64(n) {
		t.Fatalf("count = %d, want %d", cnt, n)
	}
	if got[0] < 45 || got[0] > 55 {
		t.Errorf("p50 = %g, want ≈50", got[0])
	}
	if got[1] < 95 || got[1] > 100 {
		t.Errorf("p99 = %g, want ≈99", got[1])
	}
}

func TestInvariantCleanTrace(t *testing.T) {
	locs, events := synthTrace(20000, 4, 8, 6)
	src := &SliceSource{LocTable: locs, Events: events}
	n, vio, err := Check(src, CheckOptions{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if vio != nil {
		t.Fatalf("clean trace flagged: %v", vio)
	}
	if n != uint64(len(events)) {
		t.Fatalf("checked %d events, want %d", n, len(events))
	}
}

func TestInvariantViolations(t *testing.T) {
	locs, events := synthTrace(5000, 2, 4, 8)
	// Find an Enqueue event to corrupt.
	enq := -1
	for i, ev := range events {
		if ev.Type == obs.Enqueue && i > 100 {
			enq = i
			break
		}
	}
	if enq < 0 {
		t.Fatal("no enqueue event in synthetic trace")
	}
	cases := []struct {
		name   string
		rule   string
		mutate func([]obs.Event) int // returns index of offending event
		opts   CheckOptions
	}{
		{
			name: "conservation-bad-qlen",
			rule: "conservation",
			mutate: func(evs []obs.Event) int {
				evs[enq].Val += 3
				return enq
			},
		},
		{
			name: "causality-phantom-transmit",
			rule: "causality",
			mutate: func(evs []obs.Event) int {
				evs[enq].Type = obs.Transmit
				evs[enq].ID = 1 << 60 // never enqueued
				return enq
			},
		},
		{
			name: "monotonic-time",
			rule: "monotonic-time",
			mutate: func(evs []obs.Event) int {
				evs[enq].T = evs[enq-1].T - time.Second
				return enq
			},
			opts: CheckOptions{NoConservation: true},
		},
		{
			name: "cwnd-below-one",
			rule: "cwnd-bounds",
			mutate: func(evs []obs.Event) int {
				evs[enq] = obs.Event{T: evs[enq].T, Type: obs.CwndChange, Conn: 1, Val: 0}
				return enq
			},
			opts: CheckOptions{NoConservation: true},
		},
		{
			name: "cwnd-above-max",
			rule: "cwnd-bounds",
			mutate: func(evs []obs.Event) int {
				evs[enq] = obs.Event{T: evs[enq].T, Type: obs.CwndChange, Conn: 1, Val: 1e6}
				return enq
			},
			opts: CheckOptions{NoConservation: true, MaxCwnd: map[int]float64{1: 64}},
		},
		{
			name: "timeout-not-increasing",
			rule: "timeout-monotonic",
			mutate: func(evs []obs.Event) int {
				evs[enq-1] = obs.Event{T: evs[enq-1].T, Type: obs.Timeout, Conn: 2, Val: 5}
				evs[enq] = obs.Event{T: evs[enq].T, Type: obs.Timeout, Conn: 2, Val: 5}
				return enq
			},
			opts: CheckOptions{NoConservation: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evs := append([]obs.Event(nil), events...)
			wantIdx := tc.mutate(evs)
			src := &SliceSource{LocTable: locs, Events: evs}
			_, vio, err := Check(src, tc.opts)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if vio == nil {
				t.Fatal("corruption not detected")
			}
			if vio.Rule != tc.rule {
				t.Fatalf("flagged rule %q, want %q (%v)", vio.Rule, tc.rule, vio)
			}
			if vio.Index != uint64(wantIdx) {
				t.Fatalf("flagged event %d, want %d (%v)", vio.Index, wantIdx, vio)
			}
			if vio.Error() == "" {
				t.Fatal("empty violation message")
			}
		})
	}
}

// TestDropTailFullRule holds the "drop-tail-full" rule to its scope: at
// a port with a capacity of B an arrival dropped at length B passes, one
// dropped at B−1 is caught; a port without a capacity, and an evicted
// (queued) victim, are not the rule's business.
func TestDropTailFullRule(t *testing.T) {
	const b = 3
	at := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	stream := []obs.Event{
		{T: at(0), Type: obs.Enqueue, ID: 1, Val: 1},
		{T: at(1), Type: obs.Dequeue, ID: 1, Val: 1},
		{T: at(2), Type: obs.Enqueue, ID: 2, Val: 2},
		{T: at(3), Type: obs.Enqueue, ID: 3, Val: 3},
		{T: at(4), Type: obs.Drop, ID: 4, Val: 3}, // full: the one drop-tail makes
		{T: at(5), Type: obs.Transmit, ID: 1, Val: 2},
		{T: at(6), Type: obs.Drop, ID: 5, Val: 2}, // B−1: a drop-tail port never makes it
	}
	capacity := map[string]int{"sw0->sw1": b}
	for _, tc := range []struct {
		name   string
		locs   []string
		events []obs.Event
		want   int // index of the violating event, -1 for none
	}{
		{"drop at B-1", []string{"sw0->sw1"}, stream, 6},
		{"no capacity", []string{"sw1->sw0"}, stream, -1},
		{"full drops only", []string{"sw0->sw1"}, stream[:6], -1},
		{"eviction below B", []string{"sw0->sw1"}, append(slices.Clone(stream[:6]),
			obs.Event{T: at(6), Type: obs.Drop, ID: 3, Val: 1}), -1},
	} {
		for _, online := range []bool{false, true} {
			var vio *Violation
			if online {
				c := NewChecker(nil, CheckOptions{Capacity: capacity})
				c.Events(tc.locs, tc.events)
				vio = c.Violation()
			} else {
				var err error
				if _, vio, err = Check(&SliceSource{LocTable: tc.locs, Events: tc.events}, CheckOptions{Capacity: capacity}); err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case tc.want < 0 && vio != nil:
				t.Errorf("%s (online %v): %v", tc.name, online, vio)
			case tc.want >= 0 && (vio == nil || vio.Rule != "drop-tail-full" || vio.Index != uint64(tc.want)):
				t.Errorf("%s (online %v): got %v, want drop-tail-full at event %d", tc.name, online, vio, tc.want)
			}
		}
	}
}

func TestOnlineCheckerForwardsAndFlags(t *testing.T) {
	locs, events := synthTrace(3000, 2, 4, 9)
	events[1500].Val += 7 // corrupt one queue length
	mem := obs.NewMemorySink()
	c := NewChecker(mem, CheckOptions{})
	if err := c.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	err := c.Events(locs, events)
	if err == nil {
		t.Fatal("checker did not report the violation")
	}
	vio, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error is %T, want *Violation", err)
	}
	if c.Violation() != vio {
		t.Fatal("Violation() disagrees with returned error")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The batch was forwarded before checking: the inner sink has it all.
	if got := mem.Len(); got != len(events) {
		t.Fatalf("inner sink holds %d events, want %d", got, len(events))
	}
}

func TestStoreRejectsCorruption(t *testing.T) {
	locs, events := synthTrace(4000, 2, 4, 10)
	_, raw := buildStore(t, locs, events, 256)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, headerSize - 1, headerSize, len(raw) / 2, len(raw) - 1} {
			if _, err := NewStore(bytes.NewReader(raw[:cut]), int64(cut)); err == nil {
				t.Errorf("store truncated to %d bytes accepted", cut)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] = 'X'
		if _, err := NewStore(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Error("bad header magic accepted")
		}
	})
	t.Run("footer-bitflip", func(t *testing.T) {
		// Flip a byte inside the footer: the CRC must catch it.
		b := append([]byte(nil), raw...)
		b[len(b)-trailerSize-3] ^= 0xff
		if _, err := NewStore(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Error("footer corruption accepted")
		}
	})
	t.Run("chunk-bitflip", func(t *testing.T) {
		// Flip bytes inside chunk payloads: opening may succeed (the
		// footer is intact) but scanning must error, never panic.
		for off := headerSize + 4; off < len(raw)/2; off += 97 {
			b := append([]byte(nil), raw...)
			b[off] ^= 0xa5
			s, err := NewStore(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				continue
			}
			scanErr := s.Scan(Query{}, func(*obs.Event) error { return nil })
			_ = scanErr // a bitflip inside value payload bytes can decode; no-crash is the contract
		}
	})
}

// TestStoreRefusesOtherVersions: a store is a cache of a deterministic
// run, so a store of any format version but the one written — older or
// newer, a header version of 0 included — is refused at open, before any
// chunk could fail to decode mid-scan, by an error that names the version
// and how to write the store again. The footer CRC does not cover the
// header, so a patched version reaches the check.
func TestStoreRefusesOtherVersions(t *testing.T) {
	locs, events := synthTrace(600, 2, 4, 1)
	_, raw := buildStore(t, locs, events, 256)
	for _, v := range []uint16{0, 1, 2, 4, math.MaxUint16} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			b := slices.Clone(raw)
			binary.LittleEndian.PutUint16(b[4:], v)
			_, err := NewStore(bytes.NewReader(b), int64(len(b)))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) || !strings.Contains(err.Error(), "tahoe-sim -trace-store") {
				t.Errorf("store of version %d: error %v, want one naming the version and tahoe-sim -trace-store", v, err)
			}
		})
	}
}

// valueEncoding encodes events as one chunk and returns the payload with
// its value column's encoding.
func valueEncoding(events []obs.Event) ([]byte, Encoding) {
	payload, _ := encodeChunk(nil, events, new(codeTable))
	return payload, chunkLayout(payload).cols[numColumns-1].enc
}

// chunkLayout walks a valid payload's column boundaries.
func chunkLayout(payload []byte) chunkSpans {
	var sp chunkSpans
	if _, _, err := (&decoder{b: payload, spans: &sp}).chunk(nil, -1, 0, 0); err != nil {
		panic(err)
	}
	return sp
}

// TestPatchedValueColumn writes chunks of integer values with a few
// exceptions — values the integer column cannot carry — and reads them
// back bit for bit, through the decoder, through the reference decoder,
// and past a projection that steps over the patch list. A chunk of
// exceptions only is cheaper raw, and is written raw.
func TestPatchedValueColumn(t *testing.T) {
	chunk := func(n int, exc map[int]float64) []obs.Event {
		events := make([]obs.Event, n)
		for i := range events {
			events[i] = obs.Event{T: time.Duration(i) * time.Millisecond, Type: obs.CwndChange, Conn: 1, Val: float64(i%61 - 30)}
		}
		for i, v := range exc {
			events[i].Val = v
		}
		return events
	}
	allFractional := chunk(64, nil)
	for i := range allFractional {
		allFractional[i].Val += 0.5
	}
	for _, tc := range []struct {
		name   string
		events []obs.Event
		enc    Encoding
	}{
		{"integers", chunk(64, nil), EncPacked},
		{"specials", chunk(64, map[int]float64{
			3:  math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
			7:  math.Copysign(0, -1),
			9:  math.Inf(1),
			20: math.Inf(-1),
			21: 1 << 52, // ±2⁵² are integers, but far outside the others' width
			22: -(1 << 52),
			30: 1<<52 + 1,
			40: math.SmallestNonzeroFloat64,
		}), EncPatched},
		{"first-and-last", chunk(100, map[int]float64{0: 0.5, 99: -1.25}), EncPatched},
		{"adjacent", chunk(100, map[int]float64{10: 0.1, 11: 0.2, 12: 0.3}), EncPatched},
		{"one-in-4096", chunk(4096, map[int]float64{2047: 6.125}), EncPatched},
		{"all-exceptions", allFractional, EncRaw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload, enc := valueEncoding(tc.events)
			if enc != tc.enc {
				t.Fatalf("value column %v, want %v", enc, tc.enc)
			}
			got, _, err := decodeChunk(payload, nil, -1, colAll, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceDecodeChunk(payload, -1)
			if err != nil {
				t.Fatalf("reference decoder: %v", err)
			}
			for i, want := range tc.events {
				if !sameEvent(got[i], want) || !sameEvent(ref[i], want) {
					t.Fatalf("event %d: decoded %+v, reference %+v, written %+v", i, got[i], ref[i], want)
				}
			}
			if _, _, err := decodeChunk(payload, nil, -1, colAll&^colVal, 0); err != nil {
				t.Fatalf("decode without values: %v", err)
			}
		})
	}
	// One exception in 4 096 costs its index gap and raw bits, ten bytes
	// (the patch count is there either way), not 8 bytes a value.
	ints, _ := valueEncoding(chunk(4096, nil))
	patched, _ := valueEncoding(chunk(4096, map[int]float64{2047: 6.125}))
	if extra := len(patched) - len(ints); extra != 2+8 {
		t.Errorf("one exception in 4096 adds %d bytes, want 10", extra)
	}
}

// TestPatchListRejectsMalformed: every malformed patch list is an error
// for the decoder, whether or not it reads the values, and for the
// reference decoder.
func TestPatchListRejectsMalformed(t *testing.T) {
	for name, payload := range malformedPatchLists() {
		for _, cols := range []colSet{colAll, colT} {
			if _, _, err := decodeChunk(payload, nil, -1, cols, 0); err == nil {
				t.Errorf("%s: decode of cols %#x accepted it", name, cols)
			}
		}
		if _, err := referenceDecodeChunk(payload, -1); err == nil {
			t.Errorf("%s: reference decoder accepted it", name)
		}
	}
}

func TestWriterLocReinterning(t *testing.T) {
	// Two "runs" with different location tables must merge into one
	// consistent store table.
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkEvents: 4})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Events([]string{"a", "b"}, []obs.Event{
		{T: 1, Type: obs.Deliver, Loc: 0},
		{T: 2, Type: obs.Deliver, Loc: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Events([]string{"b", "c"}, []obs.Event{
		{T: 3, Type: obs.Deliver, Loc: 0},
		{T: 4, Type: obs.Deliver, Loc: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := s.Scan(Query{}, func(ev *obs.Event) error {
		names = append(names, s.Locs()[ev.Loc])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("event %d at %q, want %q (all: %v)", i, names[i], want[i], names)
		}
	}
	if n, err := Count(s, Query{Loc: "b"}); err != nil || n != 2 {
		t.Fatalf("Count(loc=b) = %d, %v; want 2", n, err)
	}
}

// A chunk size above the cap used to go into the 32-bit header field as
// it was (2³² + 5 recorded as 5) and be allocated at once; the writer
// now records, and stages up to, the cap.
func TestWriterCapsChunkEvents(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkEvents: math.MaxInt})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[8:12]); got != maxChunkEvents {
		t.Errorf("header records %d events a chunk, want the cap %d", got, maxChunkEvents)
	}
	s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if got := s.ChunkEvents(); got != maxChunkEvents {
		t.Errorf("ChunkEvents() = %d, want %d", got, maxChunkEvents)
	}
}

// worstCaseEvent is event i of a trace built to encode as wide as the
// format allows: time steps of ±2⁶³ ns, 2¹⁶ locations (16-bit codes), a
// connection id and a size of its own for every event (dictionaries as
// long as the chunk, 20-bit codes), seqs over the whole 32-bit range and
// ids over the whole 64-bit one (offsets as wide as the field), kinds
// over a whole byte, fractional values (the raw float column).
func worstCaseEvent(i int) obs.Event {
	ev := obs.Event{
		T:    1 << 62,
		Type: obs.Type(i % int(obs.NumTypes)),
		Kind: packet.Kind(i),
		Loc:  obs.Loc(i),
		Conn: math.MinInt32 + int32(i)*4093,
		Seq:  int32(uint32(i) * 2654435761),
		Size: math.MaxInt32 - int32(i),
		ID:   uint64(i) * 0x9e3779b97f4a7c15,
		Val:  float64(i) + 0.5,
	}
	if i%2 == 1 {
		ev.T = -ev.T
	}
	return ev
}

// TestLargestChunkRoundTrips: a chunk of maxChunkEvents worst-case
// events stays inside the payload bound the reader enforces, so the cap
// on WriterOptions.ChunkEvents really does mean every store opens.
func TestLargestChunkRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("stages and decodes a 2²⁰-event chunk: about 50 MB encoded, 300 MB peak")
	}
	path := filepath.Join(t.TempDir(), "largest.tobc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]string, 1<<16)
	for i := range locs {
		locs[i] = "l" + strconv.Itoa(i)
	}
	w := NewWriter(f, WriterOptions{ChunkEvents: maxChunkEvents + 1})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	batch := make([]obs.Event, 1<<14)
	for off := 0; off < maxChunkEvents; off += len(batch) {
		for i := range batch {
			batch[i] = worstCaseEvent(off + i)
		}
		if err := w.Events(locs, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	chunks := s.Chunks()
	if len(chunks) != 1 || chunks[0].Count != maxChunkEvents {
		t.Fatalf("store has %d chunks, the first of %d events; want one of %d", len(chunks), chunks[0].Count, maxChunkEvents)
	}
	if perEvent := float64(chunks[0].Size) / maxChunkEvents; perEvent < 45 || chunks[0].Size > maxChunkPayload {
		t.Errorf("chunk payload is %d bytes (%.1f an event): want the worst case, 45 or more an event, inside the reader's bound %d", chunks[0].Size, perEvent, maxChunkPayload)
	}
	i := 0
	err = s.Scan(Query{From: math.MinInt64}, func(ev *obs.Event) error {
		if want := worstCaseEvent(i); *ev != want {
			return fmt.Errorf("event %d read back as %+v, written as %+v", i, *ev, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != maxChunkEvents {
		t.Fatalf("scan returned %d events, want %d", i, maxChunkEvents)
	}
}
