package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/core"
)

const smokeScale = 1.0 / 20

var smokePlan = plan{seed: 1, scale: smokeScale, reps: 1, cold: true}

func jsonOf(w *workload, seed int64) []byte {
	var all []byte
	for _, r := range w.gen(seed, smokeScale) {
		all = append(all, r.json...)
	}
	return all
}

// oneRep runs one repetition of runs against ledger l and fails the
// test on a harness error.
func oneRep(t *testing.T, runs []runSpec, l *ledger, alt *variant) repOut {
	t.Helper()
	r := repetition(runs, l, nil, alt)
	if len(r.digests) == 0 {
		t.Fatalf("%s: every run failed", l.workload)
	}
	return r
}

func quietLedger(name string) *ledger { return &ledger{errw: io.Discard, workload: name} }

func TestGeneratorIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := jsonOf(w, 7), jsonOf(w, 7), jsonOf(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", w.name)
		}
	}
}

func TestDifferentSeedDifferentDigest(t *testing.T) {
	w := workloadByName("paper-twoway")
	a := oneRep(t, w.gen(1, smokeScale), quietLedger(w.name), nil)
	b := oneRep(t, w.gen(2, smokeScale), quietLedger(w.name), nil)
	if a.digests[0] == b.digests[0] {
		t.Errorf("seeds 1 and 2 produced the same digest %+v", a.digests[0])
	}
}

// TestDigestHasTeeth: the same workload with Buffer 21 instead of 20
// must fail the digest check.
func TestDigestHasTeeth(t *testing.T) {
	w := workloadByName("paper-twoway")
	runs := w.gen(1, smokeScale)
	l := quietLedger(w.name)
	oneRep(t, runs, l, nil)
	oneRep(t, runs, l, nil)
	if l.failed != 0 {
		t.Fatalf("unperturbed repetitions disagree: %d failed", l.failed)
	}
	for i := range runs {
		runs[i].json = bytes.Replace(runs[i].json, []byte(`"buffer": 20`), []byte(`"buffer": 21`), 1)
	}
	oneRep(t, runs, l, nil)
	if l.failed != len(runs) {
		t.Errorf("buffer 21 failed %d of %d digest checks, want all", l.failed, len(runs))
	}
}

// TestVariantsKeepDigests: heap ≡ wheel and shards 1 ≡ 2 on the configs
// that run both. (chain1k-shards2 uses seed 2: at seed 1 and smoke size
// the serial and the 2-shard run differ by two events, a simulator
// defect README.md records.)
func TestVariantsKeepDigests(t *testing.T) {
	for name, seed := range map[string]int64{"paper-twoway": 1, "flows-100k": 1, "chain1k-shards2": 2} {
		w := workloadByName(name)
		runs := w.gen(seed, smokeScale)
		l := quietLedger(name)
		oneRep(t, runs, l, nil)
		oneRep(t, runs, l, w.variant)
		if l.failed != 0 || l.variantDiffers != 0 {
			t.Errorf("%s: %s variant changed the digest", name, w.variant.metric)
		}
	}
}

func TestShardVariantIsSerial(t *testing.T) {
	cfg := core.Config{Shards: 2}
	workloadByName("chain1k-shards2").variant.mutate(&cfg, &runSpec{})
	if cfg.Shards != 1 {
		t.Errorf("variant left Shards = %d", cfg.Shards)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON: every name is well formed and used once,
// and the harness and BENCHMARK.json declare the same workloads and
// metrics.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	// BENCHMARK.json lists the gated workloads; the ungated ones are the
	// harness's alone and still need a well-formed, unused name.
	var gated []*workload
	for _, w := range workloads {
		name(w.name)
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(f.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness gates %d", len(f.Workloads), len(gated))
	}
	for i, w := range gated {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		name(m.name)
		if g := f.EndToEnd[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, g, m)
		}
		if !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bad unit %q or bound %v", m.name, m.unit, m.bound)
		}
	}
	for i, m := range perLayer {
		name(m.name)
		if g := f.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, g, m)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: bad unit %q", m.name, m.unit)
		}
	}
}

func TestRefusesMoreGoroutinesThanProcessors(t *testing.T) {
	if err := checkThreads(workloadByName("chain1k-shards2"), 1); err == nil {
		t.Error("a 2-shard workload was accepted on 1 processor")
	}
	for _, w := range workloads {
		if err := checkThreads(w, 2); err != nil {
			t.Errorf("%s refused on 2 processors: %v", w.name, err)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "lower")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 || s.Value != s.Q1 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}, "higher"); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 || s.Value != s.Q3 {
		t.Errorf("got %+v", s)
	}
}

func TestProfileBuckets(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "tahoedyn/internal/queue.(*FIFO).Push", "tahoedyn/internal/link.(*Port).Send"}, "link"},
		{[]string{"tahoedyn/internal/sim.(*Engine).RunUntil", "tahoedyn/internal/core.(*Sim).span"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "tahoedyn/internal/trace.(*Series).Append"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "tahoedyn/internal/tcp.(*Sender).transmit"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
		{[]string{"tahoedyn/internal/topology.(*Compiled).NextHop"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestTracedSmoke runs one workload's traced pass at smoke size: the
// shares add up, the spans nest, and every declared metric is present.
func TestTracedSmoke(t *testing.T) {
	isoOps = 2_000
	w := workloadByName("traced-red")
	rep, spans, err := traced(w, smokePlan, isolated(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("ops attempted %d failed %d", rep.attempted, rep.failed)
	}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += rep.perLayer[shareMetric(b)]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("steady-state shares sum to %v", sum)
	}
	for _, m := range perLayer {
		if _, ok := rep.perLayer[m.name]; !ok {
			t.Errorf("traced run did not report %s", m.name)
		}
	}
	for _, n := range []string{"scenario.parse_s", "core.build_s", "core.steady_s", "tstore.check_s", "tstore.store_mb", "obs.emit_on_ns"} {
		if rep.perLayer[n] <= 0 {
			t.Errorf("%s = %v, want > 0", n, rep.perLayer[n])
		}
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Errorf("span %+v is malformed", s)
		}
		if s.Parent >= 0 {
			if p := spans[s.Parent]; s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %q [%d,%d] escapes its parent %q [%d,%d]", s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
	}
}

// TestSmoke is `go run . -smoke`: every workload at 1/20 size through
// the untraced and the traced pass, well inside ten seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes a few seconds")
	}
	start := time.Now()
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errs); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, errs.String(), out.String())
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke run took %v, want < 10s", d)
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "\n"+w.name+"  (traced;") {
			t.Errorf("smoke output has no traced table for %s", w.name)
		}
	}
	if strings.Contains(out.String(), "ops_failed=") && !strings.Contains(out.String(), "ops_failed=0") {
		t.Errorf("smoke run reported failed operations:\n%s", out.String())
	}
}
