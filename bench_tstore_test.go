package tahoedyn

// Trace-store benchmarks: full-scan throughput (events/s decoded) and
// what each aggregate fold costs over a 10⁶-event store.

import (
	"bytes"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/tstore"
)

// benchTraceBatch builds one deterministic batch of store events shaped
// like real port traffic (mixed types, a handful of locations and
// connections, mostly-ascending timestamps).
func benchTraceBatch(n int, start time.Duration) ([]string, []obs.Event) {
	locs := []string{"sw0->sw1:data", "sw1->sw0:ack", "sw1->sw2:data", "h0:tcp"}
	events := make([]obs.Event, n)
	t := start
	for i := range events {
		t += time.Duration(50+i%17) * time.Microsecond
		typ := obs.Enqueue
		switch i % 5 {
		case 1:
			typ = obs.Dequeue
		case 2:
			typ = obs.Transmit
		case 3:
			typ = obs.Deliver
		case 4:
			if i%35 == 4 {
				typ = obs.Drop
			}
		}
		events[i] = obs.Event{
			T:    t,
			Type: typ,
			Loc:  obs.Loc(i % len(locs)),
			Conn: int32(1 + i%3),
			Kind: packet.Data,
			ID:   uint64(i),
			Seq:  int32(i / 3),
			Size: 576,
			Val:  float64(i % 24),
		}
	}
	return locs, events
}

// buildBenchStore materializes an in-memory store for the scan benches.
func buildBenchStore(b *testing.B, nEvents int) *tstore.Store {
	b.Helper()
	var buf bytes.Buffer
	w := tstore.NewWriter(&buf, tstore.WriterOptions{})
	if err := w.Begin(); err != nil {
		b.Fatal(err)
	}
	const batch = 1 << 16
	for off := 0; off < nEvents; off += batch {
		n := batch
		if nEvents-off < n {
			n = nEvents - off
		}
		locs, events := benchTraceBatch(n, time.Duration(off)*58*time.Microsecond)
		if err := w.Events(locs, events); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	s, err := tstore.NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len())/float64(nEvents), "B/event")
	return s
}

// BenchmarkTraceStoreScan measures full-store decode throughput.
func BenchmarkTraceStoreScan(b *testing.B) {
	const nEvents = 1 << 20
	s := buildBenchStore(b, nEvents)
	b.ReportAllocs()
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		n = 0
		err := s.Scan(tstore.Query{}, func(ev *obs.Event) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n != nEvents {
		b.Fatalf("scanned %d events, want %d", n, nEvents)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceStoreFold measures what each aggregate costs over a
// 10⁶-event store — the folds read a few columns each, where
// BenchmarkTraceStoreScan decodes all nine — in events of the store per
// second and bytes allocated per fold.
func BenchmarkTraceStoreFold(b *testing.B) {
	const nEvents = 1_000_000
	folds := []struct {
		name string
		run  func(s *tstore.Store) (uint64, error)
	}{
		{"count-drop", func(s *tstore.Store) (uint64, error) {
			return s.Count(tstore.Query{Filter: obs.Filter{Types: 1 << obs.Drop}})
		}},
		{"quantiles-enqueue", func(s *tstore.Store) (uint64, error) {
			_, n, err := tstore.Quantiles(s, tstore.Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}, []float64{0.5, 0.9, 0.99})
			return n, err
		}},
		{"windowed-transmit-byloc", func(s *tstore.Store) (uint64, error) {
			groups, err := tstore.Windowed(s, tstore.Query{Filter: obs.Filter{Types: 1 << obs.Transmit}},
				tstore.WindowOptions{Width: time.Second, ByLoc: true})
			var n uint64
			for _, series := range groups {
				for i := range series {
					n += uint64(series[i].Count)
				}
			}
			return n, err
		}},
		{"check", func(s *tstore.Store) (uint64, error) {
			// The synthetic batch is not a conserving queue trace.
			n, vio, err := tstore.Check(s, tstore.CheckOptions{NoConservation: true})
			if err == nil && vio != nil {
				err = vio
			}
			return n, err
		}},
	}
	for _, f := range folds {
		b.Run(f.name, func(b *testing.B) {
			s := buildBenchStore(b, nEvents)
			b.ReportAllocs()
			b.ResetTimer()
			var n uint64
			for i := 0; i < b.N; i++ {
				var err error
				if n, err = f.run(s); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n == 0 {
				b.Fatal("fold saw no event")
			}
			b.ReportMetric(nEvents*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
