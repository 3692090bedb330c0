package tstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/scenario"
	"tahoedyn/internal/tstore"
)

// TestWriterBytesPinned holds the writer's output to the bytes the
// format-v1 encoder produced before the dictionary columns became
// table-driven: the digests below were recorded on commit 119cf96. A
// change here is a format change, and stores already on disk stop being
// what a fresh run would write.
func TestWriterBytesPinned(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	t.Run("synth", func(t *testing.T) {
		for _, tc := range []struct {
			n, ports, conns, chunk int
			// wide spreads connection ids over negative values and a range
			// beyond 2¹⁶, the inputs the encoder's code table does not take.
			wide bool
			want string
		}{
			{20000, 4, 8, 256, false, "03c5331f0630406f1a73b82eec26ba32980ea13f70ae5b1b369fb1dc64eb449d"},
			{100000, 7, 300, 0, false, "44efbb02ca4cab82ee408f399bbbd17e6d8a6131d01a14dd7138c5e982123ed1"},
			{20000, 4, 8, 4096, true, "337b9ef70a717fd4395ffd51d043064179dc0dd5443efb281f6c091e24a29127"},
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
			var buf bytes.Buffer
			w := tstore.NewWriter(&buf, tstore.WriterOptions{ChunkEvents: tc.chunk})
			if err := w.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := w.Events(locs, events); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sum(buf.Bytes()); got != tc.want {
				t.Errorf("synthTrace(%d, %d, %d) at chunk %d (wide conns %v): store digest %s, want %s", tc.n, tc.ports, tc.conns, tc.chunk, tc.wide, got, tc.want)
			}
		}
	})
	t.Run("red-twoway", func(t *testing.T) {
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
		w := tstore.NewWriter(&buf, tstore.WriterOptions{})
		cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: w}}
		if res := core.Run(cfg); res.TraceErr != nil {
			t.Fatal(res.TraceErr)
		}
		const want = "6e45c9be067646028b889bd3f96c200e442ff68e98e7fb74aff1fd80c17d9829"
		if got := sum(buf.Bytes()); got != want {
			t.Errorf("red-twoway store (%d bytes, %d events): digest %s, want %s", buf.Len(), w.TotalEvents(), got, want)
		}
	})
}
