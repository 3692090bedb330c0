package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tahoedyn"
)

// query runs the command in-process with the given arguments and
// returns the exit status.
func query(t *testing.T, args ...string) int {
	t.Helper()
	_, code := queryOut(t, args...)
	return code
}

// A store carrying one hostile timestamp used to make -window append
// windows until the process died, and so did an anchor (-from) far
// below the events — or indexed out of range once the offset
// overflowed. Both must be reported and exit 1; a window that fits the
// span still works.
func TestWindowOverHostileStoreExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.tobc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := tahoedyn.NewTraceStoreSink(f, tahoedyn.TraceStoreOptions{})
	events := make([]tahoedyn.TraceEvent, 100)
	for i := range events {
		events[i] = tahoedyn.TraceEvent{T: time.Duration(i) * time.Millisecond, Type: tahoedyn.TraceTransmit, Size: 500, ID: uint64(i)}
	}
	events[99].T = time.Duration(math.MaxInt64 / 2)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Events([]string{"sw0->sw1"}, events); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if code := query(t, "-count", path); code != 0 {
		t.Fatalf("-count exited %d, want 0", code)
	}
	if code := query(t, "-window", "1ms", "-by-loc", path); code != 1 {
		t.Errorf("-window 1ms over a 2⁶² ns span exited %d, want 1", code)
	}
	if code := query(t, "-window", "1ms", "-from", "-2562047h", path); code != 1 {
		t.Errorf("-window anchored 292 years before the events exited %d, want 1", code)
	}
	if code := query(t, "-window", "1000000h", path); code != 0 {
		t.Errorf("-window 1000000h exited %d, want 0", code)
	}
}

// queryOut is query with standard output returned too.
func queryOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldOut, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldOut, oldFlags }()
	os.Args, os.Stdout = append([]string{"tahoe-query"}, args...), out
	flag.CommandLine = flag.NewFlagSet("tahoe-query", flag.ContinueOnError)
	code := run()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), code
}

// A file that is not a TOBC store — a flat binary ("TOBS") trace, the
// format the chunked store replaced; a JSON-lines trace; a file too
// short to hold the magic — is refused with an error naming the format
// that is accepted: exit 1, not a panic.
func TestRejectsTOBSTrace(t *testing.T) {
	for name, body := range map[string]string{
		"old.tobs":   "TOBS\x01\x00\x01\x00\x00\x00\x00",
		"run.ndjson": "{\"v\":1}\n{\"t_ns\":1,\"type\":\"cwnd\",\"loc\":\"conn1\",\"conn\":1,\"val\":2}\n",
		"two.bytes":  "TO",
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		oldErr := os.Stderr
		os.Stderr = stderr
		_, code := queryOut(t, "-count", path)
		os.Stderr = oldErr
		stderr.Close()
		msg, err := os.ReadFile(stderr.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 || !strings.Contains(string(msg), `want "TOBC"`) {
			t.Errorf("tahoe-query -count over %s: exit %d, stderr %q; want exit 1 naming the TOBC format", name, code, msg)
		}
	}
}

// Chunks of a store need not be in time order — an offline ingest may
// write a later stretch first — so -info takes the span over the whole
// index, not from the first and last entries. Its first line also names
// the format version and the chunk capacity the store was written with.
func TestInfoOverStoreWrittenInReverseTimeOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reverse.tobc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := tahoedyn.NewTraceStoreSink(f, tahoedyn.TraceStoreOptions{ChunkEvents: 2})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	events := []tahoedyn.TraceEvent{
		{T: 7 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 3},
		{T: 9 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 4},
		{T: 1 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 1},
		{T: 2 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 2},
	}
	if err := w.Events([]string{"sw0->sw1"}, events); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, code := queryOut(t, "-info", path)
	want := path + ": chunked trace store (format v2), 4 events in 2 chunks of ≤ 2 events\n" +
		"  span 1s .. 9s\n" +
		"  68 payload bytes (17.0 B/event)\n" +
		"  1 locations\n"
	if code != 0 || got != want {
		t.Errorf("tahoe-query -info: exit %d, printed %q, want %q", code, got, want)
	}
}
