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

// query runs the command in-process with the given arguments, its
// standard output discarded, and returns the exit status.
func query(t *testing.T, args ...string) int {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	oldArgs, oldOut, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldOut, oldFlags }()
	os.Args, os.Stdout = append([]string{"tahoe-query"}, args...), null
	flag.CommandLine = flag.NewFlagSet("tahoe-query", flag.ContinueOnError)
	return run()
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
