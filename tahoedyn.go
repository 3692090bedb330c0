// Package tahoedyn reproduces Zhang, Shenker & Clark, "Observations on
// the Dynamics of a Congestion Control Algorithm: The Effects of Two-Way
// Traffic" (SIGCOMM 1991): a deterministic discrete-event network
// simulator, a from-scratch BSD 4.3-Tahoe TCP congestion control
// implementation, and the analysis machinery for the paper's phenomena —
// ACK-compression, packet clustering, and the in-phase/out-of-phase
// synchronization modes of two-way traffic.
//
// The package is a facade over the implementation packages. Typical use:
//
//	cfg := tahoedyn.Dumbbell(10*time.Millisecond, 20)
//	cfg.Conns = []tahoedyn.ConnSpec{
//	    {SrcHost: 0, DstHost: 1, Start: -1},
//	    {SrcHost: 1, DstHost: 0, Start: -1},
//	}
//	res := tahoedyn.Run(cfg)
//	fmt.Printf("bottleneck utilization: %.1f%%\n", res.UtilForward()*100)
//
// Or run a paper experiment by name:
//
//	out, err := tahoedyn.Experiment("fig4-5", tahoedyn.ExpOptions{})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	out.WriteText(os.Stdout)
package tahoedyn

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"tahoedyn/internal/analysis"
	"tahoedyn/internal/core"
	"tahoedyn/internal/experiment"
	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/plot"
	"tahoedyn/internal/runner"
	"tahoedyn/internal/scenario"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
	"tahoedyn/internal/tstore"
)

// Scenario construction and execution.
type (
	// Config describes a scenario: topology, link parameters, and
	// connections. See Dumbbell for the paper's standard parameters.
	Config = core.Config
	// ConnSpec describes one TCP connection in a scenario.
	ConnSpec = core.ConnSpec
	// Result is a completed run: traces, drops, utilizations, stats.
	Result = core.Result
	// CollapseEvent is one congestion-window collapse.
	CollapseEvent = core.CollapseEvent
	// LinkEvent is a mid-run change to one trunk link (Config.Events):
	// a bandwidth step or a link-down. Routing is updated incrementally
	// and runs with events stay byte-identical at every shard count.
	LinkEvent = core.LinkEvent
	// Arena is a reusable allocation context for back-to-back runs:
	// engine buckets, the event free list, the packet free list, the
	// trace ring, and the backing arrays of the run's series and logs
	// survive from one run to the next (a Result gets copies). Reuse
	// is behavior-neutral; see NewArena.
	Arena = core.Arena
	// SchedKind selects the event-scheduler implementation backing a
	// run's engine (Config.Sched): SchedWheel or SchedHeap.
	SchedKind = sim.SchedKind
)

// Event-scheduler kinds for Config.Sched, the one place a scheduler is
// chosen. Both fire events in exactly the same (time, sequence) order —
// byte-identity across all shipped scenarios is asserted in tests — so
// the choice never changes results, only run speed. SchedDefault is the
// wheel; the heap is the referee those tests hold it against.
const (
	SchedDefault = sim.SchedDefault
	SchedWheel   = sim.SchedWheel
	SchedHeap    = sim.SchedHeap
)

// SetDefaultShards overrides the shard count a Config with Shards == 0
// runs at (normally 1); both CLIs expose it as -shards. Sharding is a
// wall-clock knob only: results are byte-identical at any count.
func SetDefaultShards(n int) { core.SetDefaultShards(n) }

// Analysis types.
type (
	// Series is a step-function time series (queue length, cwnd, ...).
	Series = trace.Series
	// DropEvent is one drop-tail discard.
	DropEvent = trace.DropEvent
	// Epoch is one congestion epoch (a burst of drops).
	Epoch = analysis.Epoch
	// PhaseMode classifies synchronization: in-phase, out-of-phase, mixed.
	PhaseMode = analysis.PhaseMode
	// CompressionStats summarizes ACK inter-arrival compression.
	CompressionStats = analysis.CompressionStats
)

// Phase mode constants.
const (
	PhaseIn    = analysis.PhaseIn
	PhaseOut   = analysis.PhaseOut
	PhaseMixed = analysis.PhaseMixed
)

// Queue-discipline and link-behavior surface. A QueueSpec on
// Config.Queue (or per link via Config.LinkQueue) selects the switch
// output-port discipline — drop-tail, random-drop, fair-queue, or RED —
// and a BehaviorSpec on Config.Behavior (or Config.LinkBehavior)
// impairs trunk lines with seeded stochastic loss (Bernoulli or
// Gilbert-Elliott), bounded jitter, optional reordering, and
// trace-driven bandwidth replay. All stochastic draws come from
// per-entity streams derived from Config.Seed, so results are
// deterministic and identical at every shard count.
type (
	// QueueSpec declares a queue discipline by policy name plus RED
	// thresholds; see QueuePolicy* for names.
	QueueSpec = link.QueueSpec
	// BehaviorSpec declares a link impairment; the zero value is an
	// ideal line.
	BehaviorSpec = link.BehaviorSpec
	// SourceSpec, on ConnSpec.Source, replaces a connection's TCP
	// endpoints with a non-TCP generator: constant-bit-rate cross
	// traffic ("cbr") or an exponential on/off source ("onoff").
	SourceSpec = core.SourceSpec
	// RateTrace is a loaded bandwidth-replay schedule for
	// BehaviorSpec.Trace; the schedule loops.
	RateTrace = link.RateTrace
)

// Queue policy names for QueueSpec.Policy.
const (
	QueuePolicyDropTail   = link.PolicyDropTail
	QueuePolicyRandomDrop = link.PolicyRandomDrop
	QueuePolicyFairQueue  = link.PolicyFairQueue
	QueuePolicyRED        = link.PolicyRED
)

// Source kinds for SourceSpec.Kind.
const (
	SourceTCP   = core.SourceTCP
	SourceCBR   = core.SourceCBR
	SourceOnOff = core.SourceOnOff
)

// ParseQueueSpec parses the -queue flag syntax: a policy name
// optionally followed by ":" and key=value parameters, e.g. "red" or
// "red:min=5,max=15,p=0.02,wq=0.002".
func ParseQueueSpec(s string) (*QueueSpec, error) { return link.ParseQueueSpec(s) }

// ParseLinkEvent parses the -event flag syntax: comma-separated
// key=value tokens, e.g. "link=1,t=120s,bw=25000" or "link=3,t=2m,down".
func ParseLinkEvent(s string) (LinkEvent, error) { return core.ParseLinkEvent(s) }

// ParseBehaviorSpec parses the -behavior flag syntax: comma-separated
// terms, e.g. "loss=0.01,jitter=2ms" or "ge=0.01/0.3/0.5" or
// "trace=rates.rt".
func ParseBehaviorSpec(s string) (*BehaviorSpec, error) { return link.ParseBehaviorSpec(s) }

// LoadRateTrace reads a bandwidth-replay schedule file: one
// "<duration> <bits/s>" step per line, #-comments allowed.
func LoadRateTrace(path string) (*RateTrace, error) { return link.LoadRateTrace(path) }

// ParseRateTrace parses the schedule syntax from a reader.
func ParseRateTrace(r io.Reader) (*RateTrace, error) { return link.ParseRateTrace(r) }

// Experiment types.
type (
	// ExpOptions tunes an experiment run (seed, duration scale).
	ExpOptions = experiment.Options
	// Outcome is an experiment's paper-vs-measured report.
	Outcome = experiment.Outcome
	// ExperimentDef is a registry entry: name, title, runner.
	ExperimentDef = experiment.Definition
)

// PlotOptions controls ASCII rendering of traces.
type PlotOptions = plot.Options

// Observability types. Attach an ObsOptions to Config.Obs to trace
// packet lifecycle events, collect per-run metrics on Result.Metrics,
// or sample live progress. A nil Config.Obs costs nothing (the
// steady-state hot path stays allocation-free) and enabling any of it
// never changes the simulation Result.
type (
	// ObsOptions selects what a run observes: Trace, Metrics, Progress.
	ObsOptions = obs.Options
	// TraceOptions configures packet-event tracing: the Sink, an
	// optional Filter, and the flush granularity (RingSize).
	TraceOptions = obs.TraceOptions
	// TraceFilter restricts tracing to a connection and/or event types.
	TraceFilter = obs.Filter
	// TraceEvent is one recorded packet lifecycle event.
	TraceEvent = obs.Event
	// TraceEventType enumerates the lifecycle stages (TraceEnqueue...).
	TraceEventType = obs.Type
	// TraceSink receives batches of trace events (a store, memory).
	// A run calls it from a goroutine of its own, one call at a time, and
	// never once RunE, Sim.RunUntil or Sim.Finish has returned.
	TraceSink = obs.Sink
	// TraceStats is what Sim.TraceStats reports: events and batches
	// delivered, and how often and how long the run waited for its sink.
	TraceStats = obs.TraceStats
	// Progress asks for periodic snapshots of a running simulation.
	Progress = obs.Progress
	// ProgressSnapshot is one liveness sample: sim clock and event count.
	ProgressSnapshot = obs.Snapshot
	// Metrics is the per-run registry exported on Result.Metrics.
	Metrics = obs.Metrics
)

// Trace event types for TraceFilter.Types (combine with TraceFilter's
// helpers or ParseTraceFilter).
const (
	TraceEnqueue    = obs.Enqueue
	TraceDequeue    = obs.Dequeue
	TraceTransmit   = obs.Transmit
	TraceDrop       = obs.Drop
	TraceDeliver    = obs.Deliver
	TraceTimeout    = obs.Timeout
	TraceCwndChange = obs.CwndChange
)

// NewMemorySink returns an in-memory sink, mainly for tests.
func NewMemorySink() *obs.MemorySink { return obs.NewMemorySink() }

// ParseTraceFilter parses the CLI filter syntax, e.g.
// "conn=2,type=drop|timeout".
func ParseTraceFilter(s string) (TraceFilter, error) { return obs.ParseFilter(s) }

// Out-of-core trace store and invariant engine (internal/tstore): a
// columnar, chunked on-disk format with an index that lets queries skip
// chunks, plus streaming invariant checks that run online during a run
// (Config.Invariants) or offline over any stored trace.
type (
	// TraceStore is an opened chunked trace store; scans stream one
	// chunk at a time, so memory stays bounded for any trace size.
	TraceStore = tstore.Store
	// TraceStoreWriter streams events into the store format. It is a
	// TraceSink, so a run traces straight to disk.
	TraceStoreWriter = tstore.Writer
	// TraceStoreOptions tunes the writer (events per chunk).
	TraceStoreOptions = tstore.WriterOptions
	// TraceQuery selects events: time window, conn/type filter, location.
	TraceQuery = tstore.Query
	// TraceChunkInfo is one store-index entry (extent, time/conn/loc
	// ranges, type mask).
	TraceChunkInfo = tstore.ChunkInfo
	// TraceEncoding names how a chunk stores a column (varint, packed,
	// patched, raw); TraceStore.Layout counts chunks by it.
	TraceEncoding = tstore.Encoding
	// WindowStat aggregates one time window of a windowed query.
	WindowStat = tstore.WindowStat
	// WindowOptions shapes a windowed aggregation (width, per-location).
	WindowOptions = tstore.WindowOptions
	// InvariantOptions selects which invariants run and their bounds.
	InvariantOptions = tstore.CheckOptions
	// InvariantViolation pinpoints the first invariant breach: rule,
	// event index, location, and the offending event. It implements
	// error and surfaces as Result.Invariant.
	InvariantViolation = tstore.Violation
)

// ErrStopScan, returned from a TraceStore.Scan callback, ends the
// scan early without error.
var ErrStopScan = tstore.ErrStop

// NewTraceStoreSink returns a sink streaming events to w in the chunked
// columnar store format. Close finalizes the store's index; the caller
// still owns (and closes) w.
func NewTraceStoreSink(w io.Writer, o TraceStoreOptions) *TraceStoreWriter {
	return tstore.NewWriter(w, o)
}

// OpenTraceStore opens a stored trace for querying.
func OpenTraceStore(path string) (*TraceStore, error) { return tstore.Open(path) }

// CheckTraceInvariants runs the invariant engine offline over a stored
// trace, returning the events checked and the first violation (nil for
// a clean trace).
func CheckTraceInvariants(sc *TraceStore, o InvariantOptions) (uint64, *InvariantViolation, error) {
	return tstore.Check(sc, o)
}

// CountTraceEvents counts the events matching q, answering from the
// store index where possible.
func CountTraceEvents(sc *TraceStore, q TraceQuery) (uint64, error) { return tstore.Count(sc, q) }

// WindowedTrace aggregates the events matching q into fixed-width time
// windows, optionally grouped per location — per-link throughput and
// queue statistics over time.
func WindowedTrace(sc *TraceStore, q TraceQuery, o WindowOptions) (map[string][]WindowStat, error) {
	return tstore.Windowed(sc, q, o)
}

// TraceQuantiles estimates quantiles of the Val field over the events
// matching q (exact up to 65536 samples, streaming P² beyond).
func TraceQuantiles(sc *TraceStore, q TraceQuery, probs []float64) ([]float64, uint64, error) {
	return tstore.Quantiles(sc, q, probs)
}

// Topology types, for scenarios beyond the default switch line. Set
// Config.Topology to a *Graph; links inherit the Trunk*/Buffer defaults
// unless overridden per link.
type (
	// Graph is a declarative network: switches, duplex links and host
	// placement.
	Graph = topology.Graph
	// LinkSpec is one duplex link with optional per-link overrides.
	LinkSpec = topology.LinkSpec
	// HostSpec places one host on a switch.
	HostSpec = topology.HostSpec
	// CompiledTopology is a validated graph with forwarding tables.
	CompiledTopology = topology.Compiled
)

// UnboundedBuffer marks a link buffer as infinite in LinkSpec.Buffer
// (0 means "inherit the scenario default").
const UnboundedBuffer = topology.Unbounded

// ChainTopology returns a line of n switches, one host each — the
// dumbbell for n = 2, the four-switch line of [19] for n = 4.
func ChainTopology(n int) Graph { return topology.Chain(n) }

// ParkingLotTopology returns a chain of hops+1 switches — the classic
// multi-bottleneck fairness topology when loaded with one long
// connection (host 0 to host hops) against one cross connection per hop.
func ParkingLotTopology(hops int) Graph { return topology.ParkingLot(hops) }

// BarabasiAlbertTopology returns a seeded scale-free graph: n switches,
// each joining switch attaching m links by preferential attachment.
// Same (n, m, seed) → same graph, on every platform.
func BarabasiAlbertTopology(n, m int, seed int64) Graph {
	return topology.BarabasiAlbert(n, m, seed)
}

// WaxmanTopology returns a seeded Waxman random geometric graph of n
// switches with a guaranteed connected backbone. Same (n, seed) → same
// graph, on every platform.
func WaxmanTopology(n int, seed int64) Graph { return topology.Waxman(n, seed) }

// topoSpecForms lists the accepted -topology spellings; every parse
// error repeats it so a typo is self-correcting at the CLI.
const topoSpecForms = "dumbbell, chain:<n>, parking-lot:<h>, ba:<n>:<m>:<seed>, or waxman:<n>:<seed>"

// topoSpecArgs is each generator's accepted spelling and argument count.
var topoSpecArgs = map[string]struct {
	form string
	args int
}{
	"chain":       {"chain:<n> with n >= 2", 1},
	"parking-lot": {"parking-lot:<h> with h >= 1", 1},
	"ba":          {"ba:<n>:<m>:<seed> with n >= 2 and 1 <= m < n", 3},
	"waxman":      {"waxman:<n>:<seed> with n >= 2", 2},
}

// ParseTopoSpec resolves a one-flag topology spec — "dumbbell",
// "chain:N", "parking-lot:H", "ba:N:M:SEED", or "waxman:N:SEED" — into
// an optional explicit graph and its canonical workload. Connections 0
// and 1 are always the end-to-end two-way pair (the pair the
// synchronization analyses report on): hosts 0 and n-1 for the
// generators with a natural line order, and for the random graphs the
// host on switch 0 against the host on the last switch. Parking-lot
// adds one single-hop cross connection per trunk after them. A nil
// graph means the default dumbbell. Both CLIs expose the syntax as
// -topology; it is also the one-flag way to build the large chains and
// random graphs the sharded-run and scale benchmarks use.
func ParseTopoSpec(spec string) (*Graph, []ConnSpec, error) {
	pair := func(a, b int) []ConnSpec {
		return []ConnSpec{
			{SrcHost: a, DstHost: b, Start: -1},
			{SrcHost: b, DstHost: a, Start: -1},
		}
	}
	name, arg, hasArg := strings.Cut(spec, ":")
	form, want := topoSpecArgs[name].form, topoSpecArgs[name].args
	switch {
	case name == "" || name == "dumbbell":
		if hasArg {
			return nil, nil, fmt.Errorf("topology %q: dumbbell takes no arguments", spec)
		}
		return nil, pair(0, 1), nil
	case form == "":
		return nil, nil, fmt.Errorf("unknown topology %q (want %s)", spec, topoSpecForms)
	case !hasArg:
		return nil, nil, fmt.Errorf("topology %q: %s needs arguments (want %s)", spec, name, form)
	}
	fields := strings.Split(arg, ":")
	if len(fields) != want {
		return nil, nil, fmt.Errorf("topology %q: %s takes %d argument(s) (want %s)", spec, name, want, form)
	}
	v := make([]int64, len(fields))
	for i, f := range fields {
		var err error
		if v[i], err = strconv.ParseInt(f, 10, 64); err != nil {
			return nil, nil, fmt.Errorf("topology %q: bad token %q (want %s)", spec, f, form)
		}
	}
	size, m, seed := int(v[0]), 0, int64(0)
	switch name {
	case "ba":
		m, seed = int(v[1]), v[2]
	case "waxman":
		seed = v[1]
	}
	g, err := topology.Generate(name, size, m, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("topology %q: %w (want %s)", spec, err, form)
	}
	conns := pair(0, g.Switches-1)
	if name == "parking-lot" {
		for h := 0; h < size; h++ {
			conns = append(conns, ConnSpec{SrcHost: h, DstHost: h + 1, Start: -1})
		}
	}
	return &g, conns, nil
}

// CompileTopology validates and compiles cfg's effective topology
// (explicit or default line), returning per-link resolved parameters and
// forwarding tables. Run does this internally; it is exported for
// validation and inspection.
func CompileTopology(cfg Config) (*CompiledTopology, error) {
	return cfg.CompileTopology()
}

// Dumbbell returns the paper's Figure-1 configuration: two switches, a
// 50 Kbps bottleneck with propagation delay tau and the given per-port
// buffer (0 = infinite), 10 Mbps access links, 500 B data and 50 B ACK
// packets. Add connections to Config.Conns before running.
func Dumbbell(tau time.Duration, buffer int) Config {
	return core.DumbbellConfig(tau, buffer)
}

// Run executes a scenario to completion and returns its traces and
// statistics. Runs are deterministic in Config (including Seed).
//
// Run is the MustRun-style spelling: an invalid Config panics. Use RunE
// for an error return, or RunContext to also support cancellation.
func Run(cfg Config) *Result { return core.Run(cfg) }

// RunE is Run with an error return: an invalid Config (bad topology,
// out-of-range connection endpoints, negative parameters) comes back as
// an error instead of a panic. A valid Config produces the same Result
// as Run, byte for byte.
func RunE(cfg Config) (*Result, error) { return core.RunE(cfg) }

// RunContext is RunE under a context: canceling ctx stops the
// simulation within one event batch and returns ctx's error. The
// partial run is discarded — cancellation never yields a Result — and
// observability sinks attached via Config.Obs are closed cleanly.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return core.RunContext(ctx, cfg)
}

// RunMany executes the configurations on a worker pool of the given
// size and returns the results in configuration order. workers follows
// the runner convention: 0 means GOMAXPROCS, <= 1 means serial. Each run
// is single-threaded and deterministic in its Config, so the returned
// slice is byte-for-byte identical for every worker count.
func RunMany(workers int, cfgs []Config) []*Result {
	return runner.RunConfigs(workers, cfgs)
}

// NewArena returns an empty Arena: its first run allocates, later runs
// reuse. An Arena is single-goroutine, like a run; use one per worker.
// It keeps the series capacity of its largest run (35 MB after a
// 10 000 sim-s two-way dumbbell) until it is dropped.
func NewArena() *Arena { return core.NewArena() }

// RunManyE is RunMany with error aggregation and cancellation: the
// returned slice always has len(cfgs) entries in configuration order,
// failed or canceled runs are nil, and the error joins every per-config
// failure (each tagged "config %d"). Canceling ctx stops in-flight runs
// within one event batch and skips runs not yet started.
func RunManyE(ctx context.Context, workers int, cfgs []Config) ([]*Result, error) {
	return runner.RunConfigsE(ctx, workers, cfgs)
}

// ParallelDo runs fn(i) for every i in [0, n) on a worker pool of the
// given size (0 = GOMAXPROCS, <= 1 = serial on the calling goroutine).
// It is the generic fan-out primitive behind RunMany, for callers whose
// jobs are not plain configs — e.g. rendering experiment reports.
func ParallelDo(workers, n int, fn func(i int)) { runner.Each(workers, n, fn) }

// ParallelDoWorkers is ParallelDo with worker identity: fn(worker, i)
// runs job i on worker `worker`, a stable index below the clamped
// worker count (always < n). Each worker runs its jobs sequentially on
// one goroutine, so callers can keep lock-free per-worker state — an
// Arena per worker is the intended use.
func ParallelDoWorkers(workers, n int, fn func(worker, i int)) {
	runner.EachWorker(workers, n, fn)
}

// Experiments lists every paper experiment in presentation order.
func Experiments() []ExperimentDef { return experiment.All() }

// Experiment runs the named paper experiment. It returns an error for an
// unknown name and for options ExpOptions.Validate refuses.
func Experiment(name string, opts ExpOptions) (*Outcome, error) {
	def, ok := experiment.Find(name)
	if !ok {
		return nil, fmt.Errorf("tahoedyn: unknown experiment %q", name)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return def.Run(opts), nil
}

// Analysis helpers re-exported for building custom studies.

// Epochs groups drops into congestion epochs separated by at least gap.
func Epochs(drops []DropEvent, gap time.Duration) []Epoch {
	return analysis.Epochs(drops, gap)
}

// Phase classifies the synchronization of two series over [from, to].
func Phase(a, b *Series, from, to, step time.Duration) (PhaseMode, float64) {
	return analysis.Phase(a, b, from, to, step)
}

// AckCompression computes ACK-compression statistics from sender-side
// ACK arrival times, given the bottleneck data transmission time.
func AckCompression(arrivals []time.Duration, dataTx, from time.Duration) CompressionStats {
	return analysis.AckCompression(arrivals, dataTx, from)
}

// Clustering is the fraction of adjacent same-connection pairs in a
// departure sequence (1 = completely clustered, 0 = interleaved), such
// as a Result.TrunkDeps log; two departures are of the same connection
// when their Conn() methods agree.
func Clustering(deps []trace.Departure) float64 { return analysis.Clustering(deps) }

// PlotASCII renders one or more series as a terminal plot, the paper's
// figures in ASCII.
func PlotASCII(w io.Writer, opts PlotOptions, series ...*Series) error {
	return plot.ASCII(w, opts, series...)
}

// PlotTSV writes series resampled on a uniform grid as tab-separated
// values.
func PlotTSV(w io.Writer, from, to, step time.Duration, series ...*Series) error {
	return plot.TSV(w, from, to, step, series...)
}

// ParseScenario reads a JSON scenario description (see
// internal/scenario for the format) and returns a runnable Config.
// Unknown fields are rejected, with one joined error naming every bad
// field path; use ParseScenarioLenient to ignore them instead.
func ParseScenario(r io.Reader) (Config, error) {
	return scenario.Parse(r)
}

// ParseScenarioLenient is ParseScenario with unknown fields ignored
// rather than rejected. The paths of the ignored fields are returned so
// callers can warn (tahoe-sim -lenient prints them to stderr).
func ParseScenarioLenient(r io.Reader) (Config, []string, error) {
	return scenario.ParseLenient(r)
}
