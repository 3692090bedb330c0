package tstore

// The PR's scale acceptance: a 10⁸-event synthetic trace streamed to
// disk through the sink interface and queried back — windowed per-link
// throughput and drop percentiles — in bounded memory. ~10 s of work
// and ~0.7 GB of disk, so gated behind an environment variable:
//
//	TAHOEDYN_HUGE_TRACE=1 go test ./internal/tstore -run TestHugeTrace -v

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
)

const hugeEvents = 100_000_000

// hugeBatch fills events with deterministic port-shaped traffic
// continuing at time start, returning the next start. One in 32 events
// is a Drop whose Val (queue length at the drop) cycles 0..23.
func hugeBatch(events []obs.Event, i0 uint64, start time.Duration) time.Duration {
	t := start
	for i := range events {
		gi := i0 + uint64(i)
		t += time.Duration(3+gi%11) * time.Microsecond
		typ := obs.Transmit
		switch gi % 32 {
		case 7:
			typ = obs.Drop
		case 15:
			typ = obs.Enqueue
		case 23:
			typ = obs.Dequeue
		}
		events[i] = obs.Event{
			T:    t,
			Type: typ,
			Loc:  obs.Loc(gi % 4),
			Conn: int32(1 + gi%3),
			Kind: packet.Data,
			ID:   gi,
			Seq:  int32(gi / 3),
			Size: 576,
			Val:  float64(gi % 24),
		}
	}
	return t
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func TestHugeTraceStreamsAndQueries(t *testing.T) {
	if os.Getenv("TAHOEDYN_HUGE_TRACE") == "" {
		t.Skip("set TAHOEDYN_HUGE_TRACE=1 to run the 10⁸-event scale test")
	}
	locs := []string{"sw0->sw1:data", "sw1->sw0:ack", "sw1->sw2:data", "sw2->sw1:ack"}
	path := filepath.Join(t.TempDir(), "huge.tobc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}

	// Ingest: 10⁸ events in sink-sized batches, one batch buffer reused.
	w := NewWriter(f, WriterOptions{})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	const batch = 1 << 16
	buf := make([]obs.Event, batch)
	var at time.Duration
	startW := time.Now()
	for off := uint64(0); off < hugeEvents; off += batch {
		n := uint64(batch)
		if hugeEvents-off < n {
			n = hugeEvents - off
		}
		at = hugeBatch(buf[:n], off, at)
		if err := w.Events(locs, buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ingestS := time.Since(startW).Seconds()
	st, _ := os.Stat(path)
	writeHeap := heapMB()
	t.Logf("ingest: %d events in %.1fs (%.1fM events/s), %d MB on disk (%.1f B/event), heap %.0f MB",
		hugeEvents, ingestS, hugeEvents/ingestS/1e6, st.Size()>>20,
		float64(st.Size())/hugeEvents, writeHeap)

	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.TotalEvents(); got != hugeEvents {
		t.Fatalf("store holds %d events, want %d", got, hugeEvents)
	}

	// Windowed per-link throughput over a mid-trace slice of the span.
	span := s.Chunks()[len(s.Chunks())-1].MaxT
	q := Query{
		From:   span * 40 / 100,
		To:     span * 60 / 100,
		Filter: obs.Filter{Types: 1 << obs.Transmit},
	}
	startQ := time.Now()
	groups, err := Windowed(s, q, WindowOptions{Width: span / 100, ByLoc: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(locs) {
		t.Fatalf("windowed throughput found %d links, want %d", len(groups), len(locs))
	}
	var winEvents uint64
	for name, ws := range groups {
		var n int64
		for _, wst := range ws {
			n += wst.Count
			if wst.Count > 0 && wst.Bytes != wst.Count*576 {
				t.Fatalf("link %s window at %v: %d bytes for %d events", name, wst.Start, wst.Bytes, wst.Count)
			}
		}
		winEvents += uint64(n)
	}
	t.Logf("windowed throughput: %d transmit events across %d links in %.1fs",
		winEvents, len(groups), time.Since(startQ).Seconds())

	// Drop percentiles over the whole trace (streams through the P²
	// estimator after the exact buffer fills).
	startP := time.Now()
	probs := []float64{0.5, 0.9, 0.99}
	vals, nDrops, err := Quantiles(s, Query{Filter: obs.Filter{Types: 1 << obs.Drop}}, probs)
	if err != nil {
		t.Fatal(err)
	}
	// Drops land on gi%32==7 and Val is gi%24; gcd(32,24)=8, so drop
	// Vals cycle uniformly over {7, 15, 23}: p50 = 15, p99 = 23.
	if vals[0] < 14 || vals[0] > 16 || vals[2] < 22 || vals[2] > 23 {
		t.Fatalf("drop quantiles off: p50=%g p99=%g", vals[0], vals[2])
	}
	if want := uint64(hugeEvents / 32); nDrops != want {
		t.Fatalf("drop count %d, want %d", nDrops, want)
	}
	queryHeap := heapMB()
	t.Logf("drop percentiles over %d drops in %.1fs: p50=%g p90=%g p99=%g, heap %.0f MB",
		nDrops, time.Since(startP).Seconds(), vals[0], vals[1], vals[2], queryHeap)

	// Bounded memory: both phases must stay far below the 6.4 GB the
	// raw events would occupy in RAM.
	if writeHeap > 256 || queryHeap > 256 {
		t.Fatalf("heap not bounded: write %.0f MB, query %.0f MB", writeHeap, queryHeap)
	}
}
