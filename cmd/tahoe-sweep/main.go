// Command tahoe-sweep maps the synchronization-mode boundary of §4.3.3:
// for a grid of buffer sizes and propagation delays it runs the two-way
// 1+1 configuration and reports the utilization and the measured
// window-synchronization mode, showing the paper's rule that larger
// buffers push the system out-of-phase while larger pipes pull it
// in-phase.
//
// Grid points are independent simulations, so the sweep fans them across
// a worker pool (-parallel). Results are printed in grid order and are
// byte-identical for every worker count.
//
// The -topology flag generalizes the swept network beyond the dumbbell:
// "chain:N" runs the two-way pair end to end over a line of N switches,
// "parking-lot:H" adds one single-hop cross connection per trunk, so
// the grid maps the mode boundary under multi-bottleneck conditions,
// and "ba:N:M:SEED" / "waxman:N:SEED" sweep the seeded random graphs
// (scale-free and geometric) with the two-way pair across the diameter.
//
// Usage:
//
//	tahoe-sweep
//	tahoe-sweep -buffers 10,20,40,80 -taus 10ms,100ms,1s -duration 600s
//	tahoe-sweep -topology parking-lot:3 -parallel 8
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tahoedyn"
	"tahoedyn/internal/prof"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code so the deferred profile flush always
// executes; sweeps are the longest-running tool and the primary
// profiling target.
func run() int {
	var (
		buffersFlag = flag.String("buffers", "10,20,40,80", "comma-separated buffer sizes in packets")
		tausFlag    = flag.String("taus", "10ms,100ms,300ms,1s", "comma-separated propagation delays")
		duration    = flag.Duration("duration", 800*time.Second, "simulated run length")
		warmup      = flag.Duration("warmup", 200*time.Second, "discarded warm-up period")
		seed        = flag.Int64("seed", 1, "scenario random seed")
		parallel    = flag.Int("parallel", 0, "worker count for the grid (0 = GOMAXPROCS, 1 = serial)")
		topoFlag    = flag.String("topology", "dumbbell", "swept network: dumbbell, chain:N, parking-lot:H, ba:N:M:SEED, or waxman:N:SEED")
		shardsFlag  = flag.Int("shards", 0, "regions per run for sharded execution (0 = serial; A/B knob; never changes results)")
		progress    = flag.Bool("progress", false, "print grid-point completion liveness to stderr")
		queueFlag   = flag.String("queue", "", "queue discipline for every grid point, e.g. fair-queue or red:min=5,max=15")
		behavFlag   = flag.String("behavior", "", "trunk link behavior for every grid point, e.g. loss=0.01,jitter=2ms")
		profFl      = prof.AddFlags(flag.String)
		eventFlag   = flag.String("event", "", "mid-run link event for every grid point, e.g. link=1,t=120s,bw=25000 or link=1,t=120s,down")
	)
	flag.Parse()

	if _, _, err := tahoedyn.ParseTopoSpec(*topoFlag); err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
		return 2
	}
	if *shardsFlag < 0 {
		fmt.Fprintln(os.Stderr, "tahoe-sweep: -shards must be >= 0")
		return 2
	}
	if *shardsFlag > 0 {
		tahoedyn.SetDefaultShards(*shardsFlag)
	}

	buffers, err := parseInts(*buffersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
		return 2
	}
	taus, err := parseDurations(*tausFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
		return 2
	}
	if *warmup < 0 {
		fmt.Fprintf(os.Stderr, "tahoe-sweep: -warmup %v is negative\n", *warmup)
		return 2
	}
	if *warmup >= *duration {
		fmt.Fprintf(os.Stderr, "tahoe-sweep: -warmup %v must be shorter than -duration %v\n", *warmup, *duration)
		return 2
	}
	var queueSpec *tahoedyn.QueueSpec
	if *queueFlag != "" {
		if queueSpec, err = tahoedyn.ParseQueueSpec(*queueFlag); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
			return 2
		}
	}
	var behavSpec *tahoedyn.BehaviorSpec
	if *behavFlag != "" {
		if behavSpec, err = tahoedyn.ParseBehaviorSpec(*behavFlag); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
			return 2
		}
	}

	var events []tahoedyn.LinkEvent
	if *eventFlag != "" {
		ev, err := tahoedyn.ParseLinkEvent(*eventFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
			return 2
		}
		events = append(events, ev)
	}

	stopProf, err := prof.Start(profFl.Config())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sweep:", err)
		}
	}()

	w := bufio.NewWriter(os.Stdout)
	sweep(w, sweepOptions{
		Taus: taus, Buffers: buffers,
		Duration: *duration, Warmup: *warmup,
		Seed: *seed, Parallel: *parallel,
		Topology: *topoFlag, Progress: *progress,
		Queue: queueSpec, Behavior: behavSpec, Events: events,
	})
	w.Flush()
	return 0
}

// sweepOptions parameterizes one grid sweep.
type sweepOptions struct {
	Taus     []time.Duration
	Buffers  []int
	Duration time.Duration
	Warmup   time.Duration
	Seed     int64
	Parallel int
	// Topology selects the swept network: "" or "dumbbell" for the
	// classic two-switch line, "chain:N", "parking-lot:H", "ba:N:M:SEED",
	// or "waxman:N:SEED".
	Topology string
	// Progress prints per-grid-point completion liveness to stderr.
	// Stdout — the report itself — is unaffected.
	Progress bool
	// Queue/Behavior, when non-nil, apply to every grid point: the
	// -queue and -behavior flags.
	Queue    *tahoedyn.QueueSpec
	Behavior *tahoedyn.BehaviorSpec
	Events   []tahoedyn.LinkEvent
}

// sweep runs the (tau, buffer) grid on a worker pool and writes the
// report. All output goes through w so tests can assert byte-identical
// results across worker counts.
func sweep(w io.Writer, opts sweepOptions) {
	graph, conns, err := tahoedyn.ParseTopoSpec(opts.Topology)
	if err != nil {
		fmt.Fprintln(w, "tahoe-sweep:", err)
		return
	}
	var cfgs []tahoedyn.Config
	var labels []string
	for _, tau := range opts.Taus {
		for _, b := range opts.Buffers {
			cfg := tahoedyn.Dumbbell(tau, b)
			cfg.Topology = graph
			cfg.Seed = opts.Seed
			cfg.Warmup = opts.Warmup
			cfg.Duration = opts.Duration
			cfg.Queue = opts.Queue
			cfg.Behavior = opts.Behavior
			cfg.Events = append([]tahoedyn.LinkEvent(nil), opts.Events...)
			cfg.Conns = append([]tahoedyn.ConnSpec(nil), conns...)
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("tau=%v,buffer=%d", tau, b))
		}
	}
	var done func(completed, total int)
	if opts.Progress {
		// Completion counts go to stderr so the stdout report stays
		// byte-identical with and without -progress. The callback may run
		// on any worker; Fprintf writes each line in one call.
		done = func(completed, total int) {
			fmt.Fprintf(os.Stderr, "tahoe-sweep: %d/%d grid points done\n", completed, total)
		}
	}
	// Each worker owns one Arena for the whole grid, so engine and
	// packet-pool storage is allocated once per worker, not once per
	// point. The arenas slice is sized by job count — an over-estimate
	// of the clamped worker count, so every worker index fits.
	//
	// CPU profiles are process-wide (prof.Start runs in main before the
	// pool spawns), and pprof labels applied here are inherited by the
	// sampled stacks, so `go tool pprof -tags` attributes samples to
	// sweep workers and grid points for the entire sweep.
	results := make([]*tahoedyn.Result, len(cfgs))
	arenas := make([]*tahoedyn.Arena, len(cfgs))
	var completed atomic.Int64
	tahoedyn.ParallelDoWorkers(opts.Parallel, len(cfgs), func(worker, i int) {
		a := arenas[worker]
		if a == nil {
			a = tahoedyn.NewArena()
			arenas[worker] = a
		}
		pprof.Do(context.Background(), pprof.Labels(
			"sweep-worker", strconv.Itoa(worker),
			"grid-point", labels[i],
		), func(context.Context) {
			results[i] = a.Run(cfgs[i])
		})
		if done != nil {
			done(int(completed.Add(1)), len(cfgs))
		}
	})

	fmt.Fprintf(w, "%-8s %-8s %-8s %-10s %-22s %s\n",
		"tau", "buffer", "pipe P", "util", "window sync (corr)", "queue sync (corr)")
	for i, res := range results {
		cfg := res.Cfg
		tau := opts.Taus[i/len(opts.Buffers)]
		b := opts.Buffers[i%len(opts.Buffers)]
		wMode, wr := tahoedyn.Phase(res.Cwnd[0], res.Cwnd[1], cfg.Warmup, cfg.Duration, time.Second)
		qMode, qr := tahoedyn.Phase(res.Q1(), res.Q2(), cfg.Warmup, cfg.Duration, time.Second)
		fmt.Fprintf(w, "%-8v %-8d %-8.3f %-10.1f %-22s %s\n",
			tau, b, cfg.PipeSize(), res.UtilForward()*100,
			fmt.Sprintf("%v (%.2f)", wMode, wr),
			fmt.Sprintf("%v (%.2f)", qMode, qr))
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseDurations(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad duration %q: %v", part, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("bad duration %q: a propagation delay cannot be negative", part)
		}
		out = append(out, d)
	}
	return out, nil
}
