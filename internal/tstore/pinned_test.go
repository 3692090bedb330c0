package tstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/scenario"
	"tahoedyn/internal/tstore"
)

// The digests of the two traces below at 65 536 events a chunk, the
// default until it became 4 096, recorded when the format became v3 (every
// column but time bit-packed).
const (
	synthDigest64K     = "061419f420b5b9cdc32c7c02b5157311440819d8d50edecb78613a1bc366c9a9"
	redTwowayDigest64K = "a9b0ccd6cbb86b4cbea0459b1f6f89493754ca41febd361545e970286b40d608"
)

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// writeStore writes one batch of events as a store of the given chunk
// size (0: the default) and returns its bytes.
func writeStore(t *testing.T, locs []string, events []obs.Event, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := tstore.NewWriter(&buf, tstore.WriterOptions{ChunkEvents: chunk})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Events(locs, events); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeCounter counts the Write calls a store costs its file.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// A chunk reaches the underlying writer — tahoe-sim hands the Writer a
// bare *os.File — in one Write, length word and payload together: the
// header is one, each chunk one, the footer and its trailer two.
func TestWriterOneWritePerChunk(t *testing.T) {
	locs, events := tstore.SynthTrace(10*256+17, 4, 8, 1)
	var wc writeCounter
	w := tstore.NewWriter(&wc, tstore.WriterOptions{ChunkEvents: 256})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Events(locs, events); err != nil {
		t.Fatal(err)
	}
	if wc.writes != 1+10 {
		t.Fatalf("%d writes after ten full chunks, want the header and ten", wc.writes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := len(writeStore(t, locs, events, 256)); wc.writes != 1+11+2 || wc.bytes != want {
		t.Fatalf("%d writes of %d bytes in all, want 14 of %d", wc.writes, wc.bytes, want)
	}
}

// redTwowayStore runs a quarter of scenarios/red-twoway.json with the
// store writer as the trace sink and returns the store's bytes.
func redTwowayStore(t *testing.T, chunk int) []byte {
	t.Helper()
	f, err := os.Open("../../scenarios/red-twoway.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := scenario.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup /= 4
	cfg.Duration /= 4
	var buf bytes.Buffer
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: tstore.NewWriter(&buf, tstore.WriterOptions{ChunkEvents: chunk})}}
	if res := core.Run(cfg); res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}
	return buf.Bytes()
}

// TestWriterBytesPinned holds the writer's output to the bytes the
// format-v3 encoder produced when it was introduced, at explicit chunk
// sizes and at the default (chunk 0, 4 096 events). A change to one of
// them is a format change, and stores already on disk stop being what a
// fresh run would write. Every digest moved when v2 added the patched
// value column and again when v3 bit-packed the columns.
func TestWriterBytesPinned(t *testing.T) {
	t.Run("synth", func(t *testing.T) {
		for _, tc := range []struct {
			n, ports, conns, chunk int
			// wide spreads connection ids over negative values and a range
			// beyond 2¹⁶, the inputs the encoder's code table does not take.
			wide bool
			want string
		}{
			{20000, 4, 8, 256, false, "e6185b42ccc02c750b47a690749e5c369719ec208e9fb3328cb6b65d2ea5beb9"},
			{100000, 7, 300, 1 << 16, false, synthDigest64K},
			{100000, 7, 300, 0, false, "24a5f6cce4f23902b11d70613892621a59bde449b9656e0b4d525c3cd13c40fc"},
			{20000, 4, 8, 4096, true, "5133eae671e2107416518aac2173587836491005ebf962f05bebe495325e45c3"},
		} {
			locs, events := tstore.SynthTrace(tc.n, tc.ports, tc.conns, 1)
			if tc.wide {
				for i := range events {
					switch {
					case i < 8192:
						events[i].Conn -= 4
					case i%5 == 0:
						events[i].Conn += int32(i) * 37
					}
				}
			}
			if got := digest(writeStore(t, locs, events, tc.chunk)); got != tc.want {
				t.Errorf("synthTrace(%d, %d, %d) at chunk %d (wide conns %v): store digest %s, want %s", tc.n, tc.ports, tc.conns, tc.chunk, tc.wide, got, tc.want)
			}
		}
	})
	t.Run("red-twoway", func(t *testing.T) {
		for _, tc := range []struct {
			chunk int
			want  string
		}{
			{1 << 16, redTwowayDigest64K},
			{0, "78397a39eb624ba50b1d3824d9f768cbdc39ea34d1c7883bceec697772a294d8"},
		} {
			b := redTwowayStore(t, tc.chunk)
			if got := digest(b); got != tc.want {
				t.Errorf("red-twoway store at chunk %d (%d bytes): digest %s, want %s", tc.chunk, len(b), got, tc.want)
			}
		}
	})
}

// answers is what a reader can ask of a store — the full event stream
// and each kind of query — as comparable values.
type answers struct {
	locs    []string
	events  []obs.Event
	counts  []uint64
	windows map[string][]tstore.WindowStat
	byLoc   map[string][]tstore.WindowStat
	quants  []float64
	nQuants uint64
	checked uint64
	verdict string
}

func ask(t *testing.T, raw []byte) answers {
	t.Helper()
	s, err := tstore.NewStore(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	a := answers{locs: s.Locs()}
	if err := s.Scan(tstore.Query{}, func(ev *obs.Event) error {
		a.events = append(a.events, *ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	span := a.events[len(a.events)-1].T
	transmits := tstore.Query{Filter: obs.Filter{Types: 1 << obs.Transmit}}
	for _, q := range []tstore.Query{
		{},
		{Filter: obs.Filter{Types: 1 << obs.Drop}},
		{Filter: obs.Filter{Conn: 2}},
		{From: span / 3, To: span / 2},
		{From: span / 3, To: span/3 + span/100, Filter: transmits.Filter, Loc: a.locs[1]},
	} {
		n, err := s.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		a.counts = append(a.counts, n)
	}
	if a.windows, err = tstore.Windowed(s, tstore.Query{}, tstore.WindowOptions{Width: span/50 + 1}); err != nil {
		t.Fatal(err)
	}
	if a.byLoc, err = tstore.Windowed(s, transmits, tstore.WindowOptions{Width: span/20 + 1, ByLoc: true}); err != nil {
		t.Fatal(err)
	}
	enqueues := tstore.Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}
	if a.quants, a.nQuants, err = tstore.Quantiles(s, enqueues, []float64{0.5, 0.9, 0.99}); err != nil {
		t.Fatal(err)
	}
	var vio *tstore.Violation
	if a.checked, vio, err = tstore.Check(s, tstore.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	a.verdict = "clean"
	if vio != nil {
		a.verdict = fmt.Sprintf("%s at %d (%s): %+v", vio.Rule, vio.Index, vio.Detail, vio.Event)
	}
	return a
}

// TestChunkSizeDoesNotChangeAnswers writes the two pinned traces, and a
// corrupted copy of one, at 1, 7, 4 096 and 65 536 events a chunk. The
// chunk size is a layout parameter: the event stream, every count,
// window, quantile and the invariant verdict are the same at all four,
// and the 65 536-event stores are byte for byte what the writer produced
// when that was the default.
func TestChunkSizeDoesNotChangeAnswers(t *testing.T) {
	locs, synth := tstore.SynthTrace(100000, 7, 300, 1)
	broken := append([]obs.Event(nil), synth...)
	broken[60000].Val += 3
	for _, tc := range []struct {
		name      string
		store     func(chunk int) []byte
		digest64K string
		verdict   string
	}{
		{"synth", func(chunk int) []byte { return writeStore(t, locs, synth, chunk) }, synthDigest64K, "clean"},
		{"synth-broken", func(chunk int) []byte { return writeStore(t, locs, broken, chunk) }, "", "conservation at 60000 "},
		{"red-twoway", func(chunk int) []byte { return redTwowayStore(t, chunk) }, redTwowayDigest64K, "clean"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.store(1 << 16)
			if got := digest(raw); tc.digest64K != "" && got != tc.digest64K {
				t.Errorf("store at 65536 events a chunk: digest %s, want %s", got, tc.digest64K)
			}
			want := ask(t, raw)
			if !strings.HasPrefix(want.verdict, tc.verdict) {
				t.Errorf("invariant verdict %q, want %q", want.verdict, tc.verdict)
			}
			// The event streams are compared one by one, the rest whole.
			stream := want.events
			want.events = nil
			for _, chunk := range []int{1, 7, 4096} {
				got := ask(t, tc.store(chunk))
				if len(got.events) != len(stream) {
					t.Fatalf("chunk %d: scan returns %d events, chunk 65536 returns %d", chunk, len(got.events), len(stream))
				}
				for i := range stream {
					if got.events[i] != stream[i] {
						t.Fatalf("chunk %d: event %d is %+v, at chunk 65536 %+v", chunk, i, got.events[i], stream[i])
					}
				}
				got.events = nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chunk %d answers\n%+v\nchunk 65536 answers\n%+v", chunk, got, want)
				}
			}
		})
	}
}
