package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // span id of the enclosing run or repetition; -1 at the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"` // the traced pass has one traced repetition: always 0
	Run      int    `json:"run"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
}

// tracer collects the traced run's per-layer evidence for one workload:
// spans around the public calls, set-up attribution, the steady-state
// CPU profile, and the operation counts the budget table multiplies the
// isolated drivers by. A nil tracer records nothing, so the untraced
// runs pay one nil compare per call site.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	run      int
	parent   int

	// sums accumulates additive per-layer figures (span seconds, bytes,
	// counts) over the traced repetition.
	sums map[string]float64

	prof bytes.Buffer
	ops  opCounts
}

// opCounts are the per-layer operation counts of the steady span,
// reconstructed from Result counters and path lengths.
type opCounts struct {
	events, portHops, forwards, hostDelivers, senderAcks, receiverData float64
	traced                                                             float64 // events through the obs tap
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), parent: -1, sums: map[string]float64{}}
}

// open starts an enclosing span (a repetition or a run) and makes it
// the parent of what follows; the returned func closes it.
func (t *tracer) open(name string) func() {
	if t == nil {
		return func() {}
	}
	id, up, run, start := len(t.spans), t.parent, t.run, time.Now()
	t.spans = append(t.spans, span{})
	t.parent = id
	return func() {
		t.spans[id] = span{ID: id, Parent: up, Name: name, Workload: t.workload, Run: run,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: time.Since(t.t0).Nanoseconds()}
		t.parent = up
	}
}

func (t *tracer) span(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.parent, Name: name, Workload: t.workload,
		Run: t.run, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.sums[name] += end.Sub(start).Seconds()
}

func (t *tracer) memStats() *runtime.MemStats {
	if t == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// setupProbes times the topology layer on its own, on the scenario the
// run is about to build: a standalone route compile, a 2-way partition,
// and one incremental link change on a clone.
func (t *tracer) setupProbes(cfg *core.Config, jsonBytes int) {
	if t == nil {
		return
	}
	t.sums["scenario.json_bytes"] += float64(jsonBytes)
	m0 := t.memStats()
	t0 := time.Now()
	topo, err := cfg.CompileTopology()
	t1 := time.Now()
	if err != nil {
		return // BuildE reports it
	}
	m1 := t.memStats()
	t.span("topology.compile_s", t0, t1)
	t.sums["topology.compile_allocs"] += float64(m1.Mallocs - m0.Mallocs)
	t.sums["topology.compile_bytes"] += float64(m1.TotalAlloc - m0.TotalAlloc)
	t.sums["topology.route_bytes"] += float64(topo.RouteBytes())
	t.sums["topology.switches"] += float64(topo.Switches)

	t0 = time.Now()
	_, err = topo.Partition(2)
	if err == nil {
		t.span("topology.partition_s", t0, time.Now())
	}

	// Re-rate the last link to half its bandwidth: the weight change a
	// bandwidth event applies.
	li := len(topo.Links) - 1
	l := topo.Links[li]
	work := topo.Clone()
	t0 = time.Now()
	_, err = work.ApplyLinkChange(li, l.Delay+link.TxTime(cfg.DataSize, l.Bandwidth/2))
	if err == nil {
		t.sums["topology.apply_link_change_s"] += time.Since(t0).Seconds()
		t.sums["topology.apply_link_changes"]++
	}
}

// wiring attributes BuildE's allocations, net of the route compile it
// contains, to connections and switches.
func (t *tracer) wiring(m0 *runtime.MemStats, cfg *core.Config) {
	if t == nil {
		return
	}
	m1 := t.memStats()
	t.sums["core.build_allocs"] += float64(m1.Mallocs - m0.Mallocs)
	t.sums["core.build_bytes"] += float64(m1.TotalAlloc - m0.TotalAlloc)
	t.sums["core.conns"] += float64(len(cfg.Conns))
}

// steadyLabel marks the CPU samples taken inside a steady span. One
// profile covers the whole traced repetition (stopping a profile takes
// ~200 ms, too long to do once per run of a 128-run workload); the
// label is what restricts the share table to steady state. Goroutines
// started inside the span — the shard runner's region workers — inherit
// it.
const steadyLabel = "steady"

func (t *tracer) steadySpan(fn func()) {
	if t == nil {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("span", steadyLabel), func(context.Context) { fn() })
}

// steady records the allocation and pool behaviour of the steady span.
func (t *tracer) steady(m0 *runtime.MemStats, s *core.Sim, events uint64) {
	if t == nil {
		return
	}
	m1 := t.memStats()
	t.sums["core.steady_allocs"] += float64(m1.Mallocs - m0.Mallocs)
	t.sums["core.steady_events"] += float64(events)
	t.sums["runtime.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
	if p := s.Pool(); p != nil {
		t.sums["packet.pool_misses"] += float64(p.Allocs())
	}
}

// account reconstructs the steady span's per-layer operation counts
// from the Result: every packet a sender or receiver emitted crosses
// its path's ports and switches and ends at a host and an endpoint.
// Whole-run counters are scaled by the steady span's share of events.
// series is the byte size of the run's recorded series and logs.
func (t *tracer) account(res *core.Result, series int, steadyEvents, tracedEvents uint64) {
	if t == nil {
		return
	}
	share := float64(steadyEvents) / float64(res.Events)
	t.ops.traced += float64(tracedEvents) * share
	var o opCounts
	for k, c := range res.Cfg.Conns {
		hops := float64(res.Topo.PathHops(c.SrcHost, c.DstHost))
		ss, rs := res.SenderStats[k], res.ReceiverStats[k]
		sent := float64(ss.DataSent + rs.AcksSent)
		// A packet crosses the host's port, one trunk port per hop, and
		// the last switch's port to the host; one switch per port but
		// the first.
		o.portHops += sent * (hops + 2)
		o.forwards += sent * (hops + 1)
		o.senderAcks += float64(ss.AcksReceived)
		o.receiverData += float64(rs.DataReceived + rs.DupData)
	}
	o.hostDelivers = o.senderAcks + o.receiverData
	t.ops.events += float64(steadyEvents)
	t.ops.portHops += o.portHops * share
	t.ops.forwards += o.forwards * share
	t.ops.hostDelivers += o.hostDelivers * share
	t.ops.senderAcks += o.senderAcks * share
	t.ops.receiverData += o.receiverData * share

	t.sums["trace.series_bytes"] += float64(series)
	t.sums["trace.sim_s"] += res.Cfg.Duration.Seconds()
}

// writeSpans writes every span the traced runs recorded to out/spans.json.
func writeSpans(spans []span) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "spans.json"), append(b, '\n'), 0o644)
}
