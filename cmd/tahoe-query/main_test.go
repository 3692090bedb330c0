package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
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

// Nothing writes flat binary (TOBS) traces any more, but old files must
// stay readable. The fixture is the first 3.6 simulated seconds of
// scenarios/red-twoway.json as the last build with a TOBS writer wrote
// them (f31e2e6, the obs package's flat binary sink on Config.Obs.Trace):
// 1160 events, 10 locations, five RED drops.
func TestReadsCommittedTOBSTrace(t *testing.T) {
	const path = "testdata/red-twoway-3.6s.tobs"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-count"}, "1160\n"},
		{[]string{"-count", "-filter", "type=drop"}, "5\n"},
		{[]string{"-events", "-limit", "1"},
			"82.153551ms      enqueue  h2->sw1          conn=2   kind=DATA seq=0       size=500   id=3        val=1\n"},
		{[]string{"-events", "-from", "3590013551ns"},
			"3.590013551s     enqueue  sw1->sw0         conn=2   kind=DATA seq=86      size=500   id=347      val=39\n"},
		{[]string{"-check"}, "invariants: clean (1160 events checked)\n"},
		{[]string{"-info"}, path + ": flat trace, 1160 events, 10 locations\n  span 82.153551ms .. 3.590013551s\n"},
	} {
		got, code := queryOut(t, append(tc.args, path)...)
		if code != 0 || got != tc.want {
			t.Errorf("tahoe-query %v: exit %d, printed %q, want %q", tc.args, code, got, tc.want)
		}
	}
}

// Chunks of a store need not be in time order — an offline ingest may
// write a later stretch first — so -info takes the span over the whole
// index, not from the first and last entries. Its first line also names
// the chunk capacity the store was written with.
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
	want := path + ": chunked trace store, 4 events in 2 chunks of ≤ 2 events\n" +
		"  span 1s .. 9s\n" +
		"  68 payload bytes (17.0 B/event)\n" +
		"  1 locations\n"
	if code != 0 || got != want {
		t.Errorf("tahoe-query -info: exit %d, printed %q, want %q", code, got, want)
	}
}
