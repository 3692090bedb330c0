package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The determinism contract of the parallel sweep: for a fixed grid and
// seed, the report must be byte-identical no matter how many workers ran.
func TestSweepOutputByteIdenticalAcrossWorkerCounts(t *testing.T) {
	opts := sweepOptions{
		Taus:     []time.Duration{10 * time.Millisecond, 300 * time.Millisecond},
		Buffers:  []int{10, 40},
		Duration: 80 * time.Second,
		Warmup:   20 * time.Second,
		Seed:     1,
	}
	var serial, parallel bytes.Buffer
	opts.Parallel = 1
	sweep(&serial, opts)
	opts.Parallel = 8
	sweep(&parallel, opts)
	if serial.Len() == 0 {
		t.Fatal("sweep produced no output")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("outputs differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// A multi-bottleneck sweep must hold the same contract: byte-identical
// output for any worker count.
func TestSweepParkingLotByteIdentical(t *testing.T) {
	opts := sweepOptions{
		Taus:     []time.Duration{10 * time.Millisecond},
		Buffers:  []int{10, 30},
		Duration: 80 * time.Second,
		Warmup:   20 * time.Second,
		Seed:     1,
		Topology: "parking-lot:3",
	}
	var serial, parallel bytes.Buffer
	opts.Parallel = 1
	sweep(&serial, opts)
	opts.Parallel = 8
	sweep(&parallel, opts)
	if serial.Len() == 0 {
		t.Fatal("sweep produced no output")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatal("parking-lot sweep differs between worker counts")
	}
}

// The CPU profile must cover the sweep's worker goroutines: prof.Start
// runs process-wide before the pool spawns, and each grid point runs
// under pprof labels, so the profile's string table has to contain the
// label keys. The label strings only appear when labeled samples were
// collected — i.e. when workers were actually profiled.
func TestSweepProfileCoversWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	// Enough simulated work for the 100 Hz profiler to catch worker
	// samples (~80 ms of CPU; a 400 s run is ~8 ms, under one tick, and
	// failed every third try); both grid points run under the sweep's
	// pprof labels.
	sweep(io.Discard, sweepOptions{
		Taus:     []time.Duration{10 * time.Millisecond},
		Buffers:  []int{20, 40},
		Duration: 4000 * time.Second,
		Warmup:   100 * time.Second,
		Seed:     1,
		Parallel: 2,
	})
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	zr, err := gzip.NewReader(raw)
	if err != nil {
		t.Fatalf("profile is not gzip-compressed protobuf: %v", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb) == 0 {
		t.Fatal("empty CPU profile")
	}
	// Label keys land in the profile string table only when samples were
	// taken while the labels were active on a worker goroutine.
	for _, want := range []string{"sweep-worker", "grid-point"} {
		if !bytes.Contains(pb, []byte(want)) {
			t.Errorf("profile has no samples labeled %q: worker goroutines were not covered", want)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("10, 20,40")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"10,abc", "10x", "20,10 5", ""} {
		if got, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error", bad, got)
		}
	}
}

func TestParseDurations(t *testing.T) {
	got, err := parseDurations("10ms, 1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 10*time.Millisecond || got[1] != time.Second {
		t.Fatalf("got %v", got)
	}
	for _, bad := range []string{"10ms,soon", "-1ms", "10ms,-1s"} {
		if got, err := parseDurations(bad); err == nil {
			t.Errorf("parseDurations(%q) = %v, want an error", bad, got)
		}
	}
}

// Flags the sweep cannot run exit 2 with a message naming the flag's
// value, before any grid point runs.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-buffers", "10x"}, `bad integer "10x"`},
		{[]string{"-taus", "-1ms"}, `bad duration "-1ms"`},
		{[]string{"-warmup", "-1s", "-duration", "10s"}, "-warmup -1s is negative"},
		{[]string{"-warmup", "10s", "-duration", "10s"}, "must be shorter than -duration"},
	} {
		code, stderr := sweepRun(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", c.args, code, stderr, c.want)
		}
	}
}

// sweepRun runs the command in-process with the given arguments and
// returns the exit status and what it wrote to standard error.
func sweepRun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	errFile, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	oldArgs, oldErr, oldFlags := os.Args, os.Stderr, flag.CommandLine
	defer func() { os.Args, os.Stderr, flag.CommandLine = oldArgs, oldErr, oldFlags }()
	os.Args, os.Stderr = append([]string{"tahoe-sweep"}, args...), errFile
	flag.CommandLine = flag.NewFlagSet("tahoe-sweep", flag.ContinueOnError)
	code := run()
	b, err := os.ReadFile(errFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}
