package obs

// The hand-off contract of a two-ring tracer (DESIGN.md §10): the sink
// sees the call sequence of a tracer that delivers inline, one call at a
// time, nothing after a failing batch, and nothing at all — no call, no
// goroutine — once a join point has returned.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// scriptSink logs every call it receives, copies of the batches
// included, fails where told to, and notices two calls at once.
type scriptSink struct {
	calls      []string
	events     []Event
	failBegin  error
	failClose  error
	failBatch  int // the Events call (0-based) that returns failWith; -1 never
	failWith   error
	batches    int
	in         atomic.Bool
	overlapped atomic.Bool
}

func (s *scriptSink) enter() func() {
	if !s.in.CompareAndSwap(false, true) {
		s.overlapped.Store(true)
	}
	return func() { s.in.Store(false) }
}

func (s *scriptSink) Begin() error {
	defer s.enter()()
	s.calls = append(s.calls, "begin")
	return s.failBegin
}

func (s *scriptSink) Events(locs []string, events []Event) error {
	defer s.enter()()
	s.calls = append(s.calls, fmt.Sprintf("events locs=%d n=%d", len(locs), len(events)))
	s.events = append(s.events, events...)
	s.batches++
	if s.batches-1 == s.failBatch {
		return s.failWith
	}
	return nil
}

func (s *scriptSink) Close() error {
	defer s.enter()()
	s.calls = append(s.calls, "close")
	return s.failClose
}

// drive records n value events (a new location every 50), flushing
// where flushAt says, then closes.
func drive(tr *Tracer, n int, flushAt map[int]bool) error {
	var loc Loc
	for i := 0; i < n; i++ {
		if i%50 == 0 {
			loc = tr.Loc(fmt.Sprintf("loc%d", i/50))
		}
		tr.Value(CwndChange, time.Duration(i)*time.Millisecond, loc, 1+i%3, float64(i))
		if flushAt[i] {
			tr.Flush()
		}
	}
	return tr.Close()
}

// settleGoroutines waits for the goroutine count to come back to want:
// a goroutine that has been sent home still counts until it has run its
// last instructions.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: the tracer left one behind", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestHandOffMatchesInlineDelivery runs random event streams with
// random flushes through an overlapping and an inline tracer: the two
// sinks must log the same calls with the same events, at every ring
// size, and the overlapping one never two calls at once.
func TestHandOffMatchesInlineDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, ring := range []int{1, 4, 256, 4096} {
		for round := 0; round < 8; round++ {
			n := rng.Intn(6 * ring)
			flushAt := map[int]bool{}
			for i := rng.Intn(4); i > 0 && n > 0; i-- {
				flushAt[rng.Intn(n)] = true
			}
			before := runtime.NumGoroutine()
			var sinks [2]*scriptSink
			for i, overlap := range []bool{false, true} {
				sinks[i] = &scriptSink{failBatch: -1}
				tr := NewTracerReusing(TraceOptions{Sink: sinks[i], RingSize: ring}, nil, overlap)
				if err := drive(tr, n, flushAt); err != nil {
					t.Fatal(err)
				}
			}
			inline, handed := sinks[0], sinks[1]
			if !reflect.DeepEqual(inline.calls, handed.calls) {
				t.Fatalf("ring %d, %d events: calls differ\ninline %v\nhanded %v", ring, n, inline.calls, handed.calls)
			}
			if !reflect.DeepEqual(inline.events, handed.events) {
				t.Fatalf("ring %d, %d events: the sinks received different events", ring, n)
			}
			if handed.overlapped.Load() {
				t.Fatalf("ring %d: two sink calls ran at once", ring)
			}
			settleGoroutines(t, before)
		}
	}
}

// TestHandOffStopsAtTheFailingBatch fails Begin, the first, a middle and
// the last Events call, and Close: the error is what Err and Close
// report, and the sink's log ends where an inline tracer's ends — with
// the failing call, then Close.
func TestHandOffStopsAtTheFailingBatch(t *testing.T) {
	const ring, n = 8, 8*5 + 3 // five full rings and a partial one: six batches
	boom := errors.New("sink failed")
	cases := []struct {
		name string
		sink func() *scriptSink
		want int // Events calls the sink must have seen
	}{
		{"begin", func() *scriptSink { return &scriptSink{failBegin: boom, failBatch: -1} }, 0},
		{"first-batch", func() *scriptSink { return &scriptSink{failBatch: 0, failWith: boom} }, 1},
		{"middle-batch", func() *scriptSink { return &scriptSink{failBatch: 2, failWith: boom} }, 3},
		{"last-batch-before-close", func() *scriptSink { return &scriptSink{failBatch: 5, failWith: boom} }, 6},
		{"close", func() *scriptSink { return &scriptSink{failClose: boom, failBatch: -1} }, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var logs [2][]string
			for i, overlap := range []bool{false, true} {
				sink := tc.sink()
				tr := NewTracerReusing(TraceOptions{Sink: sink, RingSize: ring}, nil, overlap)
				if err := drive(tr, n, nil); !errors.Is(err, boom) {
					t.Fatalf("overlap=%v: Close() = %v, want the sink's error", overlap, err)
				}
				if err := tr.Err(); !errors.Is(err, boom) {
					t.Fatalf("overlap=%v: Err() = %v, want the sink's error", overlap, err)
				}
				if sink.batches != tc.want {
					t.Fatalf("overlap=%v: the sink saw %d batches, want %d: %v", overlap, sink.batches, tc.want, sink.calls)
				}
				if sink.calls[len(sink.calls)-1] != "close" {
					t.Fatalf("overlap=%v: the log does not end with close: %v", overlap, sink.calls)
				}
				logs[i] = sink.calls
			}
			if !reflect.DeepEqual(logs[0], logs[1]) {
				t.Fatalf("calls differ\ninline %v\nhanded %v", logs[0], logs[1])
			}
			settleGoroutines(t, before)
		})
	}
}

// TestJoinLeavesNothingRunning holds the sink inside a batch and checks
// that Err — the join that does not flush — returns only after the sink
// has (it reads what the sink wrote, without a lock: the race detector
// referees), leaves the partial ring alone, and takes the goroutine with
// it.
func TestJoinLeavesNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	sink := &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
	tr := NewTracer(TraceOptions{Sink: sink, RingSize: 4})
	loc := tr.Loc("port")
	for i := 0; i < 6; i++ { // one full ring handed off, two events in the next
		tr.Value(CwndChange, time.Duration(i), loc, 1, 1)
	}
	<-sink.entered // the batch is at the sink, on another goroutine
	go func() { close(sink.release) }()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if sink.in.Load() {
		t.Fatal("a sink call is running after the join")
	}
	if sink.got != 4 {
		t.Fatalf("the sink holds %d events after the join, want the 4 of the full ring", sink.got)
	}
	settleGoroutines(t, before)
	if err := tr.Close(); err != nil || sink.got != 6 {
		t.Fatalf("after Close: %d events, err %v; want 6, nil", sink.got, err)
	}
	settleGoroutines(t, before)
}

// gateSink blocks inside its first Events call until released.
type gateSink struct {
	entered, release chan struct{}
	in               atomic.Bool
	got              int
}

func (s *gateSink) Begin() error { return nil }
func (s *gateSink) Close() error { return nil }
func (s *gateSink) Events(_ []string, events []Event) error {
	s.in.Store(true)
	defer s.in.Store(false)
	if s.got == 0 {
		close(s.entered)
		<-s.release
	}
	s.got += len(events)
	return nil
}

// slowSink stands for a device slower than the simulation: every batch
// takes it a few milliseconds.
type slowSink struct{}

func (slowSink) Begin() error { return nil }
func (slowSink) Close() error { return nil }
func (slowSink) Events([]string, []Event) error {
	time.Sleep(3 * time.Millisecond)
	return nil
}

// TestTracerStats pins the counters: Events and Batches are the run's
// own, equal for an inline and an overlapping tracer; an inline tracer
// never waits; a sink slower than the producer makes the tracer wait,
// and the waiting is what Stats reports.
func TestTracerStats(t *testing.T) {
	const ring, n = 16, 16*6 + 5
	var stats [2]TraceStats
	for i, overlap := range []bool{false, true} {
		tr := NewTracerReusing(TraceOptions{Sink: &scriptSink{failBatch: -1}, RingSize: ring}, nil, overlap)
		if err := drive(tr, n, nil); err != nil {
			t.Fatal(err)
		}
		stats[i] = tr.Stats()
		if stats[i].Events != n || stats[i].Batches != 7 {
			t.Fatalf("overlap=%v: %d events in %d batches, want %d in 7", overlap, stats[i].Events, stats[i].Batches, n)
		}
		if stats[i].SinkWaits > stats[i].Batches || (stats[i].SinkWaits == 0) != (stats[i].SinkWait == 0) {
			t.Fatalf("overlap=%v: inconsistent waits %+v", overlap, stats[i])
		}
	}
	if stats[0].SinkWaits != 0 {
		t.Fatalf("an inline tracer waited for its sink: %+v", stats[0])
	}

	// Six full rings into a 3 ms sink, produced in microseconds: the
	// tracer stands at (nearly) every hand-off after the first.
	tr := NewTracer(TraceOptions{Sink: slowSink{}, RingSize: ring})
	if err := drive(tr, n, nil); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SinkWaits == 0 || st.SinkWait < 3*time.Millisecond {
		t.Fatalf("a slow sink went unnoticed: %+v", st)
	}
	var nilTracer *Tracer
	if st := nilTracer.Stats(); st != (TraceStats{}) {
		t.Fatalf("nil tracer stats = %+v", st)
	}
}

// TestRingReuse hands a finished tracer's slab to the next one, the way
// core.Arena does: two rings are adopted whole, an inline tracer takes
// its one ring from the same slab, and a slab too small is replaced.
func TestRingReuse(t *testing.T) {
	sink := &scriptSink{failBatch: -1}
	first := NewTracerReusing(TraceOptions{Sink: sink, RingSize: 8}, nil, true)
	slab := first.Ring()
	if cap(slab) < 16 {
		t.Fatalf("an overlapping tracer's slab holds %d events, want two rings of 8", cap(slab))
	}
	for _, tc := range []struct {
		ring    int
		overlap bool
		reused  bool
	}{
		{8, true, true}, {8, false, true}, {16, false, true}, {16, true, false}, {4, true, true},
	} {
		tr := NewTracerReusing(TraceOptions{Sink: sink, RingSize: tc.ring}, slab, tc.overlap)
		if got := unsafe.SliceData(tr.Ring()) == unsafe.SliceData(slab); got != tc.reused {
			t.Errorf("ring %d overlap=%v: slab reused = %v, want %v", tc.ring, tc.overlap, got, tc.reused)
		}
		if err := drive(tr, 3*tc.ring+1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var nilTracer *Tracer
	if nilTracer.Ring() != nil {
		t.Fatal("nil tracer has a ring")
	}
}

// TestHandOffAllocatesNothing steps a tracer the way a caller steps a
// Sim — a few hand-offs, then a join — on the one processor AllocsPerRun
// grants: the goroutine of each step has ended when its join returns, so
// the next step reuses it, and neither the go statement (a method value)
// nor the channels allocate.
func TestHandOffAllocatesNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := NewTracer(TraceOptions{Sink: dropSink{}, RingSize: 4})
	loc := tr.Loc("port")
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 9; i++ { // two full rings and an event the join leaves alone
			tr.Value(CwndChange, time.Duration(i), loc, 1, 1)
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a step of two hand-offs and a join allocates %.2f times, want 0", allocs)
	}
	// At most the last step's goroutine, caught in its final instructions.
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("%d goroutines after 101 joined steps, %d before: one processor never got round to ending them", n, before)
	}
	settleGoroutines(t, before)
}

// dropSink is a sink that drops every batch.
type dropSink struct{}

func (dropSink) Begin() error                   { return nil }
func (dropSink) Close() error                   { return nil }
func (dropSink) Events([]string, []Event) error { return nil }
