// Command tahoe-sim runs the paper's experiments by name and renders
// their figures as ASCII plots, metric reports, and optional TSV files.
//
// Independent runs — every experiment under -all, and every seed under
// -seeds — fan across a worker pool (-parallel). Reports are rendered
// off-line per job and printed in job order, so the output is
// byte-identical for every worker count.
//
// Usage:
//
//	tahoe-sim -list
//	tahoe-sim -experiment fig4-5
//	tahoe-sim -experiment fig8-fixed -plot -width 120 -height 24
//	tahoe-sim -all -tsv out/ -parallel 8
//	tahoe-sim -experiment fig6-7 -seeds 1,2,3,4 -scale 0.5
//	tahoe-sim -config scenario.json
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tahoedyn"
	"tahoedyn/internal/prof"
)

func main() {
	os.Exit(run())
}

// stringList is a repeatable string flag: each occurrence appends.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, " ") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// run is main with an exit code: the profile flush is deferred here,
// which a direct os.Exit in the body would skip.
func run() int {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		name     = flag.String("experiment", "", "experiment to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		config   = flag.String("config", "", "run a JSON scenario file instead of a named experiment")
		seed     = flag.Int64("seed", 1, "scenario random seed")
		seedList = flag.String("seeds", "", "comma-separated seeds for multi-seed mode (overrides -seed)")
		scale    = flag.Float64("scale", 1.0, "duration scale factor (1.0 = paper-length runs)")
		parallel = flag.Int("parallel", 0, "worker count for independent runs (0 = GOMAXPROCS, 1 = serial)")
		doPlot   = flag.Bool("plot", true, "render ASCII plots of the figure traces")
		width    = flag.Int("width", 100, "plot width in characters")
		height   = flag.Int("height", 18, "plot height in characters")
		tsvDir   = flag.String("tsv", "", "directory to write per-experiment TSV trace files")
		validate = flag.Bool("validate", false, "with -config: parse, compile, and print the resolved scenario without running it")
		progress = flag.Duration("progress", 0, "print liveness to stderr every interval of simulated time (0 = off)")
		lenient  = flag.Bool("lenient", false, "with -config: ignore unknown JSON fields instead of rejecting them (warns on stderr)")
		shardsFl = flag.Int("shards", 0, "regions per run for sharded execution (0 = serial; A/B knob; never changes results)")
		storeFl  = flag.String("trace-store", "", "with -config: stream the run's event trace to this chunked store file (query it with tahoe-query)")
		invarFl  = flag.Bool("invariants", false, "verify streaming invariants (packet conservation, time monotonicity, cwnd bounds) online during every run")
		queueFl  = flag.String("queue", "", "with -config: override the queue discipline, e.g. drop-tail, fair-queue, red, red:min=5,max=15,p=0.02,wq=0.002")
		behavFl  = flag.String("behavior", "", "with -config: override the trunk link behavior, e.g. loss=0.01,jitter=2ms or ge=0.01/0.3/0.5 or trace=rates.rt")
		profFl   = prof.AddFlags(flag.String)
	)
	var eventFls stringList
	flag.Var(&eventFls, "event", "with -config: add a mid-run link event, e.g. link=1,t=120s,bw=25000 or link=1,t=120s,down (repeatable)")
	flag.Parse()

	// Experiments build their configs internally, so -shards is applied
	// as a process-wide default rather than per Config; it only ever
	// changes wall-clock, never results.
	if *shardsFl < 0 {
		fmt.Fprintln(os.Stderr, "tahoe-sim: -shards must be >= 0")
		return 2
	}
	if *shardsFl > 0 {
		tahoedyn.SetDefaultShards(*shardsFl)
	}

	prog := progressObserver(*progress)

	if *validate && *config == "" {
		fmt.Fprintln(os.Stderr, "tahoe-sim: -validate requires -config <file>")
		return 2
	}
	var (
		ov  overrides
		err error
	)
	if *queueFl != "" {
		if *config == "" {
			fmt.Fprintln(os.Stderr, "tahoe-sim: -queue requires -config <file>")
			return 2
		}
		if ov.queue, err = tahoedyn.ParseQueueSpec(*queueFl); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
			return 2
		}
	}
	if *behavFl != "" {
		if *config == "" {
			fmt.Fprintln(os.Stderr, "tahoe-sim: -behavior requires -config <file>")
			return 2
		}
		if ov.behavior, err = tahoedyn.ParseBehaviorSpec(*behavFl); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
			return 2
		}
	}

	if len(eventFls) > 0 {
		if *config == "" {
			fmt.Fprintln(os.Stderr, "tahoe-sim: -event requires -config <file>")
			return 2
		}
		for _, s := range eventFls {
			ev, err := tahoedyn.ParseLinkEvent(s)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
				return 2
			}
			ov.events = append(ov.events, ev)
		}
	}

	stopProf, err := prof.Start(profFl.Config())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
		}
	}()

	if *list {
		for _, d := range tahoedyn.Experiments() {
			fmt.Printf("  %-20s %s\n", d.Name, d.Title)
		}
		return 0
	}

	if *config != "" {
		if *validate {
			if err := validateScenarioFile(os.Stdout, *config, *lenient, ov); err != nil {
				fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
				return 1
			}
			return 0
		}
		if err := runScenarioFile(*config, *width, *height, *doPlot, *lenient, prog, *storeFl, *invarFl, ov); err != nil {
			fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
			return 1
		}
		return 0
	}
	if *lenient {
		fmt.Fprintln(os.Stderr, "tahoe-sim: -lenient requires -config <file>")
		return 2
	}
	if *storeFl != "" {
		fmt.Fprintln(os.Stderr, "tahoe-sim: -trace-store requires -config <file>")
		return 2
	}

	var names []string
	switch {
	case *all:
		for _, d := range tahoedyn.Experiments() {
			names = append(names, d.Name)
		}
	case *name != "":
		names = []string{*name}
	default:
		fmt.Fprintln(os.Stderr, "tahoe-sim: need -experiment <name>, -all, or -list")
		return 2
	}

	seeds, err := parseSeeds(*seedList, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
		return 2
	}
	// Options.Scale reads 0 as 1.0; on the command line it is a mistake.
	err = tahoedyn.ExpOptions{Scale: *scale}.Validate()
	if err == nil && *scale == 0 {
		err = errors.New("a scale must be positive")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-sim: -scale %v: %v\n", *scale, err)
		return 2
	}

	jobs := buildJobs(names, seeds, *scale, *parallel, prog, *invarFl)
	rendered, outs, err := renderJobs(jobs, renderOptions{
		Parallel: *parallel, Plot: *doPlot, Width: *width, Height: *height,
		SeedHeaders: len(seeds) > 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
		return 2
	}

	failed := false
	for i, buf := range rendered {
		os.Stdout.Write(buf.Bytes())
		out := outs[i]
		if !out.Passed() {
			failed = true
		}
		if *tsvDir != "" && len(out.Series) > 0 && out.PlotTo > out.PlotFrom {
			if err := writeTSV(*tsvDir, jobs[i].tsvName(), out); err != nil {
				fmt.Fprintln(os.Stderr, "tahoe-sim:", err)
				return 1
			}
		}
		fmt.Println()
	}
	if failed {
		return 1
	}
	return 0
}

// job is one (experiment, seed) cell of the run grid.
type job struct {
	name      string
	opts      tahoedyn.ExpOptions
	multiSeed bool
}

// tsvName returns the TSV file stem: the experiment name, qualified by
// the seed in multi-seed mode so files do not clobber each other.
func (j job) tsvName() string {
	if j.multiSeed {
		return fmt.Sprintf("%s-seed%d", j.name, j.opts.Seed)
	}
	return j.name
}

// buildJobs expands names × seeds into the job grid, seeds innermost so
// one experiment's seeds print together. parallel is forwarded into each
// experiment's options so experiments with internal sweeps (mode-boundary,
// oneway-buffers) fan their own runs too.
func buildJobs(names []string, seeds []int64, scale float64, parallel int, prog *tahoedyn.Progress, invariants bool) []job {
	multi := len(seeds) > 1
	var jobs []job
	for _, n := range names {
		for _, s := range seeds {
			jobs = append(jobs, job{
				name: n,
				opts: tahoedyn.ExpOptions{
					Seed: s, Scale: scale, Parallel: expWorkers(parallel),
					Observer: prog, Invariants: invariants,
				},
				multiSeed: multi,
			})
		}
	}
	return jobs
}

// progressObserver builds the -progress stderr reporter. The callback
// runs inside simulations that may execute on several workers at once,
// so it prints one self-contained line per sample and nothing else.
func progressObserver(every time.Duration) *tahoedyn.Progress {
	if every <= 0 {
		return nil
	}
	return &tahoedyn.Progress{Every: every, Fn: func(s tahoedyn.ProgressSnapshot) {
		fmt.Fprintf(os.Stderr, "tahoe-sim: t=%v/%v (%3.0f%%) events=%d logs=%.1fMB\n",
			s.Now.Round(time.Millisecond), s.End, s.Frac()*100, s.Events, float64(s.LogBytes)/(1<<20))
	}}
}

// expWorkers maps the CLI -parallel convention (0 = GOMAXPROCS) onto the
// experiment.Options one (0 = serial, negative = GOMAXPROCS).
func expWorkers(parallel int) int {
	if parallel == 0 {
		return -1
	}
	return parallel
}

type renderOptions struct {
	Parallel      int
	Plot          bool
	Width, Height int
	SeedHeaders   bool
}

// renderJobs validates the experiment names, fans the jobs across the
// worker pool, and renders each report into its own buffer. Buffers come
// back in job order, so printing them sequentially is deterministic for
// any worker count.
func renderJobs(jobs []job, ro renderOptions) ([]*bytes.Buffer, []*tahoedyn.Outcome, error) {
	// Validate names up front: a bad -experiment must fail before any
	// worker burns minutes of simulation.
	known := make(map[string]bool)
	for _, d := range tahoedyn.Experiments() {
		known[d.Name] = true
	}
	for _, j := range jobs {
		if !known[j.name] {
			return nil, nil, fmt.Errorf("unknown experiment %q", j.name)
		}
	}

	outs := make([]*tahoedyn.Outcome, len(jobs))
	errs := make([]error, len(jobs))
	tahoedyn.ParallelDo(ro.Parallel, len(jobs), func(i int) {
		outs[i], errs[i] = tahoedyn.Experiment(jobs[i].name, jobs[i].opts)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}

	rendered := make([]*bytes.Buffer, len(jobs))
	for i, out := range outs {
		buf := &bytes.Buffer{}
		if ro.SeedHeaders {
			fmt.Fprintf(buf, "== seed %d ==\n", jobs[i].opts.Seed)
		}
		if err := out.WriteText(buf); err != nil {
			return nil, nil, err
		}
		if ro.Plot && len(out.Series) > 0 && out.PlotTo > out.PlotFrom {
			err := tahoedyn.PlotASCII(buf, tahoedyn.PlotOptions{
				Width: ro.Width, Height: ro.Height,
				From: out.PlotFrom, To: out.PlotTo,
			}, out.Series...)
			if err != nil {
				fmt.Fprintln(buf, "tahoe-sim: plot:", err)
			}
		}
		rendered[i] = buf
	}
	return rendered, outs, nil
}

// parseSeeds returns the multi-seed list, or the single fallback seed.
func parseSeeds(list string, fallback int64) ([]int64, error) {
	if list == "" {
		return []int64{fallback}, nil
	}
	var out []int64
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// overrides are the flags that edit a scenario file's configuration
// after it is parsed: -queue, -behavior and every -event.
type overrides struct {
	queue    *tahoedyn.QueueSpec
	behavior *tahoedyn.BehaviorSpec
	events   []tahoedyn.LinkEvent
}

// loadScenario parses a scenario file, strictly by default, and applies
// the override flags — so a run and -validate see the same
// configuration. With lenient, unknown JSON fields are warned about on
// stderr and ignored — the escape hatch for files written by newer or
// foreign tools.
func loadScenario(path string, lenient bool, ov overrides) (tahoedyn.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return tahoedyn.Config{}, err
	}
	defer f.Close()
	var cfg tahoedyn.Config
	if lenient {
		var unknown []string
		cfg, unknown, err = tahoedyn.ParseScenarioLenient(f)
		for _, p := range unknown {
			fmt.Fprintf(os.Stderr, "tahoe-sim: %s: ignoring unknown field %q\n", path, p)
		}
	} else {
		cfg, err = tahoedyn.ParseScenario(f)
	}
	if err != nil {
		return cfg, err
	}
	// Flag events append after the file's own, so both apply (events
	// sort by time at build anyway); a -queue or -behavior replaces
	// whatever the file chose.
	cfg.Events = append(cfg.Events, ov.events...)
	if ov.queue != nil {
		cfg.Queue = ov.queue
	}
	if ov.behavior != nil {
		cfg.Behavior = ov.behavior
	}
	return cfg, nil
}

// runScenarioFile executes an arbitrary JSON scenario and prints a
// generic dynamics report: utilizations, synchronization, drops, and the
// bottleneck queue plot. With storePath, the run's full event trace
// streams to a chunked store file; with invariants, the streaming
// checker runs online and a violation fails the command naming the
// offending event.
func runScenarioFile(path string, width, height int, doPlot, lenient bool, prog *tahoedyn.Progress, storePath string, invariants bool, ov overrides) error {
	cfg, err := loadScenario(path, lenient, ov)
	if err != nil {
		return err
	}
	obsOpts := tahoedyn.ObsOptions{Progress: prog}
	var storeW *tahoedyn.TraceStoreWriter
	var storeF *os.File
	if storePath != "" {
		storeF, err = os.Create(storePath)
		if err != nil {
			return err
		}
		defer storeF.Close()
		storeW = tahoedyn.NewTraceStoreSink(storeF, tahoedyn.TraceStoreOptions{})
		obsOpts.Trace = &tahoedyn.TraceOptions{Sink: storeW}
	}
	if prog != nil || storeW != nil {
		cfg.Obs = &obsOpts
	}
	if invariants {
		cfg.Invariants = &tahoedyn.InvariantOptions{}
	}
	sim, err := tahoedyn.NewArena().BuildE(cfg)
	if err != nil {
		return err
	}
	res := sim.Finish()
	cfg = res.Cfg // normalized copy, with defaults filled in
	fmt.Printf("scenario %s: %d switches, τ=%v, buffer %d, %d connections\n",
		path, cfg.Switches, cfg.TrunkDelay, cfg.Buffer, len(cfg.Conns))
	if res.Invariant != nil {
		return res.Invariant
	}
	if invariants {
		fmt.Println("  invariants: clean")
	}
	if storeW != nil {
		if res.TraceErr != nil {
			return fmt.Errorf("trace store: %w", res.TraceErr)
		}
		if err := storeF.Close(); err != nil {
			return err
		}
		// Waits near the batch count: the file set the pace (README).
		st := sim.TraceStats()
		fmt.Printf("  trace store: %d events -> %s (%d batches; waited for the sink %d times, %.1f ms)\n",
			storeW.TotalEvents(), storePath, st.Batches, st.SinkWaits, float64(st.SinkWait)/float64(time.Millisecond))
	}
	for i := range res.TrunkUtil {
		fmt.Printf("  trunk %d utilization: %.1f%% / %.1f%%\n",
			i, res.TrunkUtil[i][0]*100, res.TrunkUtil[i][1]*100)
	}
	if len(res.Cwnd) >= 2 {
		mode, r := tahoedyn.Phase(res.Cwnd[0], res.Cwnd[1], cfg.Warmup, cfg.Duration, time.Second)
		fmt.Printf("  window sync (conns 1,2): %v (r=%.2f)\n", mode, r)
	}
	qmode, qr := tahoedyn.Phase(res.Q1(), res.Q2(), cfg.Warmup, cfg.Duration, time.Second)
	fmt.Printf("  queue sync: %v (r=%.2f)\n", qmode, qr)
	epochs := tahoedyn.Epochs(res.Drops, 2*time.Second)
	fmt.Printf("  drops: %d in %d epochs; goodput %v\n", len(res.Drops), len(epochs), res.Goodput)
	if doPlot {
		from := cfg.Duration - 30*time.Second
		if from < cfg.Warmup {
			from = cfg.Warmup
		}
		return tahoedyn.PlotASCII(os.Stdout, tahoedyn.PlotOptions{
			Width: width, Height: height, From: from, To: cfg.Duration,
		}, res.Q1(), res.Q2())
	}
	return nil
}

// validateScenarioFile parses and compiles a scenario without running
// it — link events included, the file's and every -event: they are
// replayed on a clone of the
// compiled topology exactly as a build replays them — and prints the
// resolved configuration: per-link parameters after defaulting, host
// placement, forwarding tables, connections, and per event what it did
// to the routes. A scenario that prints cleanly here is guaranteed to
// build; one that does not fails with the build's own error.
func validateScenarioFile(w io.Writer, path string, lenient bool, ov overrides) error {
	cfg, err := loadScenario(path, lenient, ov)
	if err != nil {
		return err
	}
	t0 := time.Now()
	topo, err := tahoedyn.CompileTopology(cfg)
	if err != nil {
		return err
	}
	compileTime := time.Since(t0)
	var events []string
	work := topo.Clone()
	err = cfg.ReplayEvents(work, func(i int, ev tahoedyn.LinkEvent, weight time.Duration, changed []int) {
		what := fmt.Sprintf("weight %v", weight)
		if ev.Down {
			what = "down"
		}
		st := work.LastChange()
		events = append(events, fmt.Sprintf("  event %d at %v: link %d %s, %d switches re-routed (%v: %d of %d columns affected, %d repaired, %d recomputed, %d cells moved)",
			i, ev.T, ev.Link, what, len(changed), st.Tier, st.Affected, st.Probed, st.Repaired, st.Recomputed, st.CellsMoved))
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: valid\n", path)
	fmt.Fprintf(w, "  switches: %d  hosts: %d  links: %d  connections: %d\n",
		topo.Switches, topo.NumHosts(), len(topo.Links), len(cfg.Conns))
	st := topo.CompileStats()
	fmt.Fprintf(w, "  routes: %d columns in %d batch(es), %d pushes (%.1f %% stale), %d distinct rows, %d runs, %d bytes (%.0f per switch), %v\n",
		st.Columns, st.Batches, st.Pushes, 100*float64(st.StalePops)/float64(st.Pushes), st.DistinctRows, topo.RouteRuns(),
		st.RouteBytes, float64(st.RouteBytes)/float64(topo.Switches),
		compileTime.Round(time.Microsecond)) // the line's one measured value
	fmt.Fprintf(w, "  seed %d, warmup %v, duration %v\n", cfg.Seed, cfg.Warmup, cfg.Duration)
	if cfg.Queue != nil {
		fmt.Fprintf(w, "  queue: %+v\n", *cfg.Queue)
	}
	if !cfg.Behavior.IsZero() {
		fmt.Fprintf(w, "  behavior: %+v\n", *cfg.Behavior)
	}
	for i, s := range cfg.Conns {
		if s.Source != nil && s.Source.Kind != "" && s.Source.Kind != tahoedyn.SourceTCP {
			fmt.Fprintf(w, "  conn %d source: %+v\n", i+1, *s.Source)
		}
	}
	for i, l := range topo.Links {
		buffer := fmt.Sprintf("%d pkts", l.Buffer)
		if l.Buffer <= 0 {
			buffer = "unbounded"
		}
		fmt.Fprintf(w, "  link %d: sw%d <-> sw%d  %d bit/s, delay %v, buffer %s\n",
			i, l.A, l.B, l.Bandwidth, l.Delay, buffer)
	}
	for h := 0; h < topo.NumHosts(); h++ {
		fmt.Fprintf(w, "  host %d on sw%d\n", h, topo.HostSwitch(h))
	}
	for s := 0; s < topo.Switches; s++ {
		fmt.Fprintf(w, "  sw%d routes:", s)
		for h := 0; h < topo.NumHosts(); h++ {
			hop, local := topo.NextHop(s, h)
			if local {
				fmt.Fprintf(w, "  h%d:local", h)
				continue
			}
			next := topo.Links[hop.Link].B
			if hop.Dir == 1 {
				next = topo.Links[hop.Link].A
			}
			fmt.Fprintf(w, "  h%d:link%d->sw%d", h, hop.Link, next)
		}
		fmt.Fprintln(w)
	}
	for i, c := range cfg.Conns {
		hops := topo.PathHops(c.SrcHost, c.DstHost)
		fmt.Fprintf(w, "  conn %d: h%d -> h%d (%d trunk hops)\n", i+1, c.SrcHost, c.DstHost, hops)
	}
	for _, line := range events {
		fmt.Fprintln(w, line)
	}
	return nil
}

func writeTSV(dir, name string, out *tahoedyn.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	step := (out.PlotTo - out.PlotFrom) / 2000
	if step <= 0 {
		step = 10 * time.Millisecond
	}
	if err := tahoedyn.PlotTSV(f, out.PlotFrom, out.PlotTo, step, out.Series...); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return f.Close()
}
