package main

import (
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	events := make([]tahoedyn.TraceEvent, 100)
	for i := range events {
		events[i] = tahoedyn.TraceEvent{T: time.Duration(i) * time.Millisecond, Type: tahoedyn.TraceTransmit, Size: 500, ID: uint64(i)}
	}
	events[99].T = time.Duration(math.MaxInt64 / 2)
	path := writeStore(t, 0, events)

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

// queryErr is queryOut with standard error returned instead.
func queryErr(t *testing.T, args ...string) (string, int) {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldErr := os.Stderr
	os.Stderr = stderr
	_, code := queryOut(t, args...)
	os.Stderr = oldErr
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(msg), code
}

// writeStore writes events at one location, "sw0->sw1", as a store of
// chunkEvents events a chunk and returns its path.
func writeStore(t *testing.T, chunkEvents int, events []tahoedyn.TraceEvent) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.tobc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := tahoedyn.NewTraceStoreSink(f, tahoedyn.TraceStoreOptions{ChunkEvents: chunkEvents})
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
	return path
}

// -check and -info read the whole store. Given a selector they used to
// ignore it — "-check -filter type=drop" printed every event of the
// store as checked and exited 0 — so they refuse it: exit 2, naming the
// flag. The operations that select still take it.
func TestWholeStoreOperationsRefuseSelectors(t *testing.T) {
	path := writeStore(t, 0, []tahoedyn.TraceEvent{
		{T: 1 * time.Second, Type: tahoedyn.TraceEnqueue, Size: 500, ID: 1, Val: 1},
		{T: 2 * time.Second, Type: tahoedyn.TraceDequeue, Size: 500, ID: 1, Val: 1},
	})
	for _, op := range [][]string{{"-check"}, {"-info"}, {}} {
		for _, sel := range [][]string{{"-filter", "type=drop"}, {"-from", "600s"}, {"-to", "1s"}, {"-loc", "sw0->sw1"}} {
			args := slices.Concat(op, sel, []string{path})
			msg, code := queryErr(t, args...)
			if code != 2 || !strings.Contains(msg, sel[0]+" does not apply") {
				t.Errorf("tahoe-query %v: exit %d, stderr %q; want exit 2 naming %s", args, code, msg, sel[0])
			}
		}
	}
	if got, code := queryOut(t, "-count", "-filter", "type=enqueue", "-from", "1s", path); code != 0 || got != "1\n" {
		t.Errorf("-count with selectors: exit %d, printed %q; want 0 and 1", code, got)
	}
	if got, code := queryOut(t, "-check", path); code != 0 || got != "invariants: clean (2 events checked)\n" {
		t.Errorf("-check alone: exit %d, printed %q", code, got)
	}
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
		msg, code := queryErr(t, "-count", path)
		if code != 1 || !strings.Contains(msg, `want "TOBC"`) {
			t.Errorf("tahoe-query -count over %s: exit %d, stderr %q; want exit 1 naming the TOBC format", name, code, msg)
		}
	}
}

// A store of another format version — an older one included — is
// refused at open: exit 1, with the reader's message naming the version
// and how to write the store again.
func TestRefusesOtherStoreVersions(t *testing.T) {
	path := writeStore(t, 0, []tahoedyn.TraceEvent{{T: time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 1}})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{0, 2, 4} {
		binary.LittleEndian.PutUint16(b[4:], v)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		msg, code := queryErr(t, "-count", path)
		if code != 1 || !strings.Contains(msg, "version "+strconv.Itoa(int(v))+",") || !strings.Contains(msg, "tahoe-sim -trace-store") {
			t.Errorf("tahoe-query -count over a version-%d store: exit %d, stderr %q; want exit 1 naming the version and tahoe-sim -trace-store", v, code, msg)
		}
	}
}

// Chunks of a store need not be in time order — an offline ingest may
// write a later stretch first — so -info takes the span over the whole
// index, not from the first and last entries. Its first line also names
// the format version and the chunk capacity the store was written with,
// and one line per column gives its bytes and encodings.
func TestInfoOverStoreWrittenInReverseTimeOrder(t *testing.T) {
	path := writeStore(t, 2, []tahoedyn.TraceEvent{
		{T: 7 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 3},
		{T: 9 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 4},
		{T: 1 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 1},
		{T: 2 * time.Second, Type: tahoedyn.TraceTransmit, Size: 500, ID: 2},
	})
	got, code := queryOut(t, "-info", path)
	want := path + ": chunked trace store (format v3), 4 events in 2 chunks of ≤ 2 events\n" +
		"  span 1s .. 9s\n" +
		"  64 payload bytes (16.0 B/event)\n" +
		"  column count          2 B   0.50 B/event  varint 2\n" +
		"  column t             20 B   5.00 B/event  varint 2\n" +
		"  column type           4 B   1.00 B/event  packed 2\n" +
		"  column kind           2 B   0.50 B/event  packed 2\n" +
		"  column loc            4 B   1.00 B/event  packed 2\n" +
		"  column conn           4 B   1.00 B/event  packed 2\n" +
		"  column seq            6 B   1.50 B/event  packed 2\n" +
		"  column size           6 B   1.50 B/event  packed 2\n" +
		"  column id             8 B   2.00 B/event  packed 2\n" +
		"  column val            8 B   2.00 B/event  packed 2\n" +
		"  1 locations\n"
	if code != 0 || got != want {
		t.Errorf("tahoe-query -info: exit %d, printed %q, want %q", code, got, want)
	}
}

// -info over a store whose columns are stored differently from chunk
// to chunk: values packed, patched (one fraction among integers) and raw
// (fractions only), ids packed and patched (one far from the others) —
// and, as over any store, column lines that add up to the payload bytes.
func TestInfoOverMixedEncodings(t *testing.T) {
	var events []tahoedyn.TraceEvent
	for i, v := range []float64{1, 2, 3, 4, 5, 6, 6.5, 7, 0.5, 1.5, 2.5, 3.5} {
		events = append(events, tahoedyn.TraceEvent{T: time.Duration(i+1) * time.Millisecond, Type: tahoedyn.TraceEnqueue, Size: 500, ID: uint64(i + 1), Val: v})
	}
	events[7].ID = 1 << 40
	path := writeStore(t, 4, events)
	got, code := queryOut(t, path)
	want := path + ": chunked trace store (format v3), 12 events in 3 chunks of ≤ 4 events\n" +
		"  span 1ms .. 12ms\n" +
		"  152 payload bytes (12.7 B/event)\n" +
		"  column count          3 B   0.25 B/event  varint 3\n" +
		"  column t             38 B   3.17 B/event  varint 3\n" +
		"  column type           3 B   0.25 B/event  packed 3\n" +
		"  column kind           3 B   0.25 B/event  packed 3\n" +
		"  column loc            6 B   0.50 B/event  packed 3\n" +
		"  column conn           6 B   0.50 B/event  packed 3\n" +
		"  column seq            9 B   0.75 B/event  packed 3\n" +
		"  column size           9 B   0.75 B/event  packed 3\n" +
		"  column id            21 B   1.75 B/event  packed 2, patched 1\n" +
		"  column val           54 B   4.50 B/event  packed 1, patched 1, raw 1\n" +
		"  1 locations\n"
	if code != 0 || got != want {
		t.Errorf("tahoe-query %s: exit %d, printed %q, want %q", path, code, got, want)
	}
	var payload, columns int
	for _, line := range strings.Split(got, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 2 && f[0] == "column":
			n, _ := strconv.Atoi(f[2])
			columns += n
		case len(f) > 2 && f[1] == "payload":
			payload, _ = strconv.Atoi(f[0])
		}
	}
	if payload == 0 || columns != payload {
		t.Errorf("column lines add up to %d bytes, payload %d", columns, payload)
	}
}
