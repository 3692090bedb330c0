package core_test

// The trace sink runs beside the event loop (obs.Tracer's two-ring
// hand-off). These tests pin what core promises about it (DESIGN.md §10,
// the sink contract): the stored bytes are the synchronous tracer's, a
// failing sink or a violated invariant is reported as before and sees
// nothing after the failing batch, and when RunUntil, Finish or
// FinishContext has returned — cancelled or not — no sink call is
// running and no goroutine is left.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/scenario"
	"tahoedyn/internal/tstore"
)

// tracedREDShape is the benchmark's traced-red workload at 1/20 length
// (bench/ is another module, so the scenario is written out): a 3-hop
// parking lot, RED queues, loss and jitter on every trunk, one long
// two-way pair plus one cross connection per hop.
const tracedREDShape = `{
  "topology": {"generator": "parking-lot", "size": 3},
  "trunk_delay": "10ms",
  "buffer": 20,
  "queue": {"policy": "red", "min_th": 5, "max_th": 15, "max_p": 0.1, "wq": 0.01},
  "behavior": {"loss": 0.001, "jitter": "2ms"},
  "seed": 1,
  "warmup": "2500ms",
  "duration": "31250ms",
  "conns": [
    {"src": 0, "dst": 3}, {"src": 3, "dst": 0},
    {"src": 0, "dst": 1}, {"src": 1, "dst": 2}, {"src": 2, "dst": 3}
  ]
}`

func parseScenario(t *testing.T, json string) core.Config {
	t.Helper()
	cfg, err := scenario.Parse(strings.NewReader(json))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// tracedInto returns cfg tracing into a TOBC store in memory with the
// invariant checker on.
func tracedInto(cfg core.Config, ring int) (core.Config, *bytes.Buffer, *tstore.Writer) {
	var buf bytes.Buffer
	w := tstore.NewWriter(&buf, tstore.WriterOptions{})
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: w, RingSize: ring}}
	cfg.Invariants = &tstore.CheckOptions{}
	return cfg, &buf, w
}

// TestStoredTraceBytesPinned is the whole-run pin of the hand-off: the
// SHA-256 of the TOBC store of two RED scenarios, invariants on. The
// digests were first taken on 018fb50, where the tracer called its sink
// synchronously from the simulation's goroutine, and moved twice with
// the store's format, on the same events each time: a shorter value
// column, then every column but time bit-packed (format v3, the one the
// reader reads). They must come out at every ring size, with one
// processor and with four, on a fresh and on a reused arena.
func TestStoredTraceBytesPinned(t *testing.T) {
	shipped, err := os.ReadFile("../../scenarios/red-twoway.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name, json, sha string
		events          uint64
	}{
		{"red-twoway", string(shipped), "a278e3f0a118161a3c5660ae8c7872ead591b9aa06356edc52584caed5db1cb1", 139357},
		{"traced-red-shape", tracedREDShape, "c84b8640a02139efcfe301b700221310f3530f19a9b3afd72f8079f6938149a0", 25248},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cfg := parseScenario(t, sc.json)
			for _, procs := range []int{1, 4} {
				old := runtime.GOMAXPROCS(procs)
				reused := core.NewArena()
				for _, ring := range []int{1, 4, 256, 4096} {
					for _, ar := range []*core.Arena{core.NewArena(), reused} {
						traced, buf, w := tracedInto(cfg, ring)
						res := ar.Run(traced)
						requireClean(t, res)
						sum := sha256.Sum256(buf.Bytes())
						if got := hex.EncodeToString(sum[:]); got != sc.sha || w.TotalEvents() != sc.events {
							t.Errorf("GOMAXPROCS %d, ring %d, reused arena %v: %d events, sha256 %s; want %d, %s",
								procs, ring, ar == reused, w.TotalEvents(), got, sc.events, sc.sha)
						}
					}
				}
				runtime.GOMAXPROCS(old)
			}
		})
	}
}

// watchedSink is a user's sink under observation: it logs the size of
// every batch, fails where told to, and flips a flag around every call
// so a test can tell whether one is running.
type watchedSink struct {
	inner     obs.Sink // may be nil
	batches   []int
	closed    int
	failBegin error
	failClose error
	failBatch int // the Events call (0-based) that returns failWith; -1 never
	failWith  error
	in        atomic.Bool
	twoAtOnce atomic.Bool
}

func (s *watchedSink) enter() func() {
	if !s.in.CompareAndSwap(false, true) {
		s.twoAtOnce.Store(true)
	}
	return func() { s.in.Store(false) }
}

func (s *watchedSink) Begin() error {
	defer s.enter()()
	if s.failBegin != nil {
		return s.failBegin
	}
	if s.inner != nil {
		return s.inner.Begin()
	}
	return nil
}

func (s *watchedSink) Events(locs []string, events []obs.Event) error {
	defer s.enter()()
	s.batches = append(s.batches, len(events))
	if len(s.batches)-1 == s.failBatch {
		return s.failWith
	}
	if s.inner != nil {
		return s.inner.Events(locs, events)
	}
	return nil
}

func (s *watchedSink) Close() error {
	defer s.enter()()
	s.closed++
	if s.failClose != nil {
		return s.failClose
	}
	if s.inner != nil {
		return s.inner.Close()
	}
	return nil
}

// sameRun compares everything two Results hold except what tracing is
// allowed to add: the trace verdicts, and the Config's own Obs and
// Invariants pointers.
func sameRun(t *testing.T, traced, plain *core.Result) {
	t.Helper()
	c := *traced
	c.TraceErr, c.Invariant = nil, nil
	c.Cfg.Obs, c.Cfg.Invariants = nil, nil
	if !reflect.DeepEqual(&c, plain) {
		t.Fatal("the traced run's Result differs from the untraced run's beyond TraceErr")
	}
}

// settleGoroutines waits for the goroutine count to come back to want: a
// goroutine that has been sent home counts until its last instruction.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: the run left one behind", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestFailingSinkSeesNothingAfterItsError fails the sink at Begin, at
// the first, a middle and the last batch, and at Close. The simulation
// finishes regardless, Result.TraceErr is the sink's error, the Result
// is otherwise the untraced run's, and the sink was handed batches 0…k
// and then only Close.
func TestFailingSinkSeesNothingAfterItsError(t *testing.T) {
	const ring = 512
	base := parseScenario(t, tracedREDShape)
	plain := core.Run(base)
	probe := &watchedSink{failBatch: -1}
	cfg := base
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: probe, RingSize: ring}}
	sameRun(t, core.Run(cfg), plain)
	total := len(probe.batches) // 25 248 events: 49 full rings and the one Close flushes
	if total < 10 || probe.batches[total-1] == ring {
		t.Fatalf("the probe run made %d batches, the last of %d events: want many, the last partial", total, probe.batches[total-1])
	}

	boom := errors.New("disk full")
	for _, tc := range []struct {
		name string
		sink func() *watchedSink
		want int // batches the sink must have been handed
	}{
		{"begin", func() *watchedSink { return &watchedSink{failBegin: boom, failBatch: -1} }, 0},
		{"first-batch", func() *watchedSink { return &watchedSink{failBatch: 0, failWith: boom} }, 1},
		{"middle-batch", func() *watchedSink { return &watchedSink{failBatch: total / 2, failWith: boom} }, total/2 + 1},
		{"last-batch-before-close", func() *watchedSink { return &watchedSink{failBatch: total - 2, failWith: boom} }, total - 1},
		{"batch-flushed-by-close", func() *watchedSink { return &watchedSink{failBatch: total - 1, failWith: boom} }, total},
		{"close", func() *watchedSink { return &watchedSink{failClose: boom, failBatch: -1} }, total},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				old := runtime.GOMAXPROCS(procs)
				before := runtime.NumGoroutine()
				sink := tc.sink()
				cfg := base
				cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: sink, RingSize: ring}}
				res := core.Run(cfg)
				if !errors.Is(res.TraceErr, boom) {
					t.Fatalf("TraceErr = %v, want the sink's error", res.TraceErr)
				}
				sameRun(t, res, plain)
				if len(sink.batches) != tc.want || sink.closed != 1 {
					t.Fatalf("GOMAXPROCS %d: the sink was handed %d batches and closed %d times, want %d and 1",
						procs, len(sink.batches), sink.closed, tc.want)
				}
				if !slices.Equal(sink.batches, probe.batches[:tc.want]) {
					t.Fatalf("GOMAXPROCS %d: batch sizes %v differ from the healthy run's first %d", procs, sink.batches, tc.want)
				}
				if sink.twoAtOnce.Load() {
					t.Fatal("two sink calls ran at once")
				}
				settleGoroutines(t, before)
				runtime.GOMAXPROCS(old)
			}
		})
	}
}

// TestViolationEndsTheStoredTraceWithItsBatch forces an invariant
// violation mid-run (a cwnd bound the second connection outgrows some
// 4 500 events in) while tracing to a store: the Checker forwards a batch
// before it checks it, so the store ends with the offending batch — the
// offending event is in it, nothing later is — and the run itself is
// untouched.
func TestViolationEndsTheStoredTraceWithItsBatch(t *testing.T) {
	const ring = 64
	base := parseScenario(t, tracedREDShape)
	plain := core.Run(base)
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		cfg, buf, w := tracedInto(base, ring)
		sink := &watchedSink{inner: w, failBatch: -1}
		cfg.Obs.Trace.Sink = sink
		cfg.Invariants = &tstore.CheckOptions{MaxCwnd: map[int]float64{2: 6}}
		res := core.Run(cfg)
		vio := res.Invariant
		if vio == nil || vio.Rule != "cwnd-bounds" || !errors.Is(res.TraceErr, error(vio)) {
			t.Fatalf("Invariant = %v, TraceErr = %v; want a cwnd-bounds violation in both", vio, res.TraceErr)
		}
		sameRun(t, res, plain)
		k := int(vio.Index) / ring // the batch holding the offending event
		if k == 0 {
			t.Fatalf("the violation is in the first batch (event %d): not a mid-run case", vio.Index)
		}
		if len(sink.batches) != k+1 || sink.closed != 1 || w.TotalEvents() != uint64((k+1)*ring) {
			t.Fatalf("GOMAXPROCS %d: the sink got %d batches and the store %d events; want %d batches, %d events",
				procs, len(sink.batches), w.TotalEvents(), k+1, (k+1)*ring)
		}
		st, err := tstore.NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		var i uint64
		var stored obs.Event
		if err := st.Scan(tstore.Query{}, func(ev *obs.Event) error {
			if i == vio.Index {
				stored = *ev
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if stored.Type != obs.CwndChange || stored.T != vio.Event.T || stored.Val != vio.Event.Val || stored.Conn != vio.Event.Conn {
			t.Fatalf("stored event %d is %+v, the violation names %+v", vio.Index, stored, vio.Event)
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestCancelledRunLeavesNothingInFlight cancels FinishContext inside the
// steady state of a traced run: it returns with no sink call running
// and the goroutine count back where it was before the run; RunUntil
// steps return the same way; and the resumed run's store is byte-equal
// to an uncut run's.
func TestCancelledRunLeavesNothingInFlight(t *testing.T) {
	base := parseScenario(t, tracedREDShape)
	uncut, whole, _ := tracedInto(base, 256)
	requireClean(t, core.Run(uncut))

	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		cfg, buf, w := tracedInto(base, 256)
		sink := &watchedSink{inner: w, failBatch: -1}
		cfg.Obs.Trace.Sink = sink
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Obs.Progress = &obs.Progress{Every: time.Second, Fn: func(s obs.Snapshot) {
			if s.Now >= 12*time.Second {
				cancel()
			}
		}}
		s, err := core.NewArena().BuildE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntil(5 * time.Second) // a plain step, past the warmup
		quiet := func(when string) {
			t.Helper()
			if sink.in.Load() {
				t.Fatalf("GOMAXPROCS %d: a sink call is running %s", procs, when)
			}
			settleGoroutines(t, before)
		}
		quiet("after RunUntil")
		delivered := len(sink.batches)
		if delivered == 0 {
			t.Fatal("no batch reached the sink in five simulated seconds")
		}
		if _, err := s.FinishContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("FinishContext = %v, want context.Canceled", err)
		}
		quiet("after the cancelled FinishContext")
		if s.Now() >= cfg.Duration || len(sink.batches) == delivered {
			t.Fatalf("cancel landed at %v with %d batches delivered (%d before): not inside the steady state", s.Now(), len(sink.batches), delivered)
		}
		if st := s.TraceStats(); st.Batches != uint64(len(sink.batches)) || st.Events != uint64(256*len(sink.batches)) {
			t.Fatalf("TraceStats %+v after %d full batches", st, len(sink.batches))
		}
		res := s.Finish() // resume
		requireClean(t, res)
		quiet("after Finish")
		if sink.twoAtOnce.Load() {
			t.Fatal("two sink calls ran at once")
		}
		if !bytes.Equal(buf.Bytes(), whole.Bytes()) {
			t.Fatalf("GOMAXPROCS %d: the resumed run's store (%d bytes) differs from the uncut run's (%d bytes)", procs, buf.Len(), whole.Len())
		}
		if st := s.TraceStats(); st.Events != w.TotalEvents() || st.SinkWaits > st.Batches {
			t.Fatalf("TraceStats %+v, the store holds %d events", st, w.TotalEvents())
		}
		runtime.GOMAXPROCS(old)
	}
}
