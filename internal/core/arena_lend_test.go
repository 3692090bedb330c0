package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
)

// The Arena's ownership rule for the logs a Result carries (DESIGN.md
// §11): the logs append into chunks from the arena's per-region pools, a
// chunk has one owner at any instant, and a Result never references
// arena memory — Finish copies out what was written, at its exact
// length, and gives the chunks back.

// longTwoWay is the paper's two-way dumbbell at the length of the
// benchmark's paper-twoway runs: 10 000 sim-s, where every log runs
// through dozens of full-size chunks.
func longTwoWay() Config {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Warmup = 200 * time.Second
	cfg.Duration = 10_000 * time.Second
	return cfg
}

// logView is one log of a Result, whatever its element type.
type logView struct {
	name     string
	data     unsafe.Pointer
	len, cap int
	elem     int // bytes an element
}

func viewOf[T any](name string, log []T) logView {
	var e T
	return logView{name, unsafe.Pointer(unsafe.SliceData(log)), len(log), cap(log), int(unsafe.Sizeof(e))}
}

// logViews lists every chunk log that res carries: all but the drop logs,
// which are merged into Drops.
func logViews(res *Result) []logView {
	var vs []logView
	for i := range res.TrunkQueue {
		for dir, q := range res.TrunkQueue[i] {
			vs = append(vs, viewOf(q.Name, q.Points), viewOf("deps "+q.Name, res.TrunkDeps[i][dir]))
		}
	}
	for k, cw := range res.Cwnd {
		vs = append(vs, viewOf(cw.Name, cw.Points), viewOf(res.RTT[k].Name, res.RTT[k].Points),
			viewOf("acks "+cw.Name, res.AckArrivals[k]), viewOf("collapses "+cw.Name, res.Collapses[k]))
	}
	return vs
}

// logRecords counts what a finished run's logs wrote: the times and the
// bytes of the rest of the records — a departure's connection, kind and
// sequence number, a point's value, a collapse, a drop record. A time
// written whole (a gap of 4.29 s or more) costs 8 B more, and an
// admission that evicted a time more; neither is counted, and a
// drop-tail run has no eviction. full is the bytes of one full-size
// chunk for each chunk log, the drop logs' included: the most the logs'
// last chunks can hold unwritten.
func logRecords(s *Sim) (times, rest, full int) {
	res, timeChunk := s.res, chunkCap[uint32](chunkClasses-1)*4
	for i, pair := range res.TrunkQueue {
		for dir := range pair {
			deps := len(res.TrunkDeps[i][dir])
			times += deps + int(s.trunks[i][dir].Stats().Enqueued)
			rest += deps * int(unsafe.Sizeof(depRest{}))
			full += 2*timeChunk + chunkBytes // departure and admission times, departure rests
		}
	}
	for k, cw := range res.Cwnd {
		pts := len(cw.Points) + len(res.RTT[k].Points)
		times += pts + len(res.AckArrivals[k])
		rest += pts*int(unsafe.Sizeof(float64(0))) + len(res.Collapses[k])*int(unsafe.Sizeof(CollapseEvent{}))
		full += 3*timeChunk + 3*chunkBytes // window, RTT and ACK times; window and RTT values, collapses
	}
	rest += len(res.Drops) * int(unsafe.Sizeof(dropRec{}))
	return times, rest, full + len(s.engs)*chunkBytes
}

// writtenBytes returns the bytes a finished run's logs wrote, 4 B a time
// plus the rest of each record, and a full-size chunk's bytes for each of
// its chunk logs.
func writtenBytes(s *Sim) (written, full int) {
	times, rest, full := logRecords(s)
	return 4*times + rest, full
}

// encodedBytes returns the bytes of the elements a Sim's logs hold before
// Finish, the drop logs left out: what the encoding of its records took.
func encodedBytes(s *Sim) int {
	n := 0
	for _, l := range s.logs.all {
		switch l := l.(type) {
		case *timeLog:
			n += elemBytes(&l.w)
		case *depLog:
			n += elemBytes(&l.t.w) + elemBytes(&l.r)
		case *seriesLog:
			n += elemBytes(&l.t.w) + elemBytes(&l.v)
		case *queueLog:
			n += elemBytes(&l.w) + elemBytes(&l.evicts.w)
		case *chunkLog[CollapseEvent]:
			n += elemBytes(l)
		}
	}
	return n
}

func elemBytes[T any](l *chunkLog[T]) int {
	var e T
	return l.len() * int(unsafe.Sizeof(e))
}

// liveHeap returns the live heap after two forced collections: the
// second frees what the first moved to sync.Pool victim caches, such as
// a warm arena an earlier test's core.Run left in the pool.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// queueLogOf returns the admission log that settles into series's points.
func (s *Sim) queueLogOf(series *trace.Series) *queueLog {
	for _, l := range s.logs.all {
		if ql, ok := l.(*queueLog); ok && ql.s == series {
			return ql
		}
	}
	return nil
}

// seriesLogOf returns the chunk log that settles into series's points.
func (s *Sim) seriesLogOf(series *trace.Series) *seriesLog {
	for _, l := range s.logs.all {
		if sl, ok := l.(*seriesLog); ok && sl.s == series {
			return sl
		}
	}
	return nil
}

// pooledBytes returns the bytes of the chunks on an arena's free lists.
func pooledBytes(a *Arena) int {
	n := 0
	for _, st := range a.regions {
		lp := st.logs
		n += freeBytes(&lp.deltas) + freeBytes(&lp.values) + freeBytes(&lp.deps) +
			freeBytes(&lp.collapses) + freeBytes(&lp.drops)
	}
	return n
}

func freeBytes[T any](p *chunkPool[T]) int {
	var e T
	n := 0
	for _, k := range p.free {
		for ; k != nil; k = k.next {
			n += cap(k.data) * int(unsafe.Sizeof(e))
		}
	}
	return n
}

// tight reports whether a log carries no reserve: its capacity is its
// length rounded up to an allocation size class — a page at most for a
// large array, a third for a small one.
func (v logView) tight() bool {
	used, slack := v.len*v.elem, 8192
	if used < 32768 {
		slack = used/3 + 16
	}
	return v.cap*v.elem <= used+slack
}

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// warmBuildMax bounds what a build on a warm arena may allocate: ports,
// endpoints, closures and the Result's own small slices, but no log.
const warmBuildMax = 64 << 10

// (a) A kept Result stays what it was while the arena goes on to other
// configurations and back, shares no array with a later Result of the
// same configuration, and retains what it used, not what was reserved.
func TestArenaResultsAliasNothing(t *testing.T) {
	cfgA := longTwoWay()
	cfgA.Duration = 2000 * time.Second
	cfgB := cfgA
	cfgB.TrunkDelay, cfgB.Buffer = time.Second, 35

	cold := Build(cfgA).Finish() // a throw-away arena: settled the same way
	a := NewArena()
	first := a.Run(cfgA)
	a.Run(cfgB)
	third := a.Run(cfgA)

	assertRunsIdentical(t, cold, first)
	if !reflect.DeepEqual(first, third) {
		t.Fatal("first and third Result of one configuration differ")
	}
	v1, v3 := logViews(first), logViews(third)
	for i := range v1 {
		if v1[i].len > 0 && v1[i].data == v3[i].data {
			t.Errorf("%s: first and third Result share a backing array", v1[i].name)
		}
		if !v1[i].tight() {
			t.Errorf("%s: len %d cap %d — slack escaped into the Result", v1[i].name, v1[i].len, v1[i].cap)
		}
	}
	for _, v := range logViews(cold) {
		if !v.tight() {
			t.Errorf("%s: len %d cap %d — the Result of a build without an arena carries slack", v.name, v.len, v.cap)
		}
	}
}

// (b) While a Sim appends into a chunk the arena holds no reference to
// it: a cold arena's run holds what a run without an arena holds. The
// window log runs through full-size chunks, every one taken mid-run.
func TestArenaHoldsNoSecondReference(t *testing.T) {
	cfg := longTwoWay()
	liveAfterRun := func(build func() *Sim) int64 {
		base := liveHeap()
		s := build()
		s.RunUntil(cfg.Duration)
		got := liveHeap() - base
		var full int
		s.seriesLogOf(s.res.Cwnd[0]).v.each(func(d []float64) {
			if cap(d)*int(unsafe.Sizeof(float64(0))) == chunkBytes {
				full++
			}
		})
		if full < 2 {
			t.Fatalf("the Cwnd log filled %d full-size chunks: nothing was taken mid-run", full)
		}
		runtime.KeepAlive(s)
		return got
	}
	plain := liveAfterRun(func() *Sim { return Build(cfg) })
	a := NewArena()
	onArena := liveAfterRun(func() *Sim { return a.Build(cfg) })
	runtime.KeepAlive(a)
	if d := onArena - plain; d > plain/100 || d < -plain/100 {
		t.Fatalf("live heap before Finish: %d B on a cold arena, %d B without one (%+.1f %%)",
			onArena, plain, 100*float64(d)/float64(plain))
	}
}

// (c) A warm build takes its logs' first chunks from the arena, and what
// a run wrote came back: the pools hold at least as many bytes.
func TestArenaWarmBuildIsSmall(t *testing.T) {
	cfg := longTwoWay()
	a := NewArena()
	s := a.Build(cfg)
	first := s.Finish()
	written, _ := writtenBytes(s)
	if pooled := pooledBytes(a); pooled < written {
		t.Fatalf("the pools hold %d B after a run that wrote %d B", pooled, written)
	}
	if n := allocatedBy(func() { s = a.Build(cfg) }); n > warmBuildMax {
		t.Fatalf("warm build allocated %d B, want <= %d", n, warmBuildMax)
	}
	if !reflect.DeepEqual(first, s.Finish()) {
		t.Fatal("warm run differs from the first")
	}
}

// (d) A canceled FinishContext copies nothing out — the Sim still owns
// its chunks — and the resumed Finish does. A canceled Sim that is
// abandoned keeps them: the arena's next build takes others and is a
// correct run. Finishing the abandoned Sim after that
// build breaks the engine half of the one-live-Sim contract (the build
// reset the engine under it, so what it returns is not a run), but it
// cannot touch anybody's logs: its Result shares no array with the run
// in between or the run after, and both are still their cold runs.
func TestArenaCancelRebuildFinishLate(t *testing.T) {
	cfgA, cfgB := twoWay(10*time.Millisecond), twoWay(time.Second)
	coldA, coldB := Build(cfgA).Finish(), Build(cfgB).Finish()

	a := NewArena()
	a.Run(cfgA)
	resumed := cancelMidRun(t, a, cfgA, 30*time.Second)
	if q := resumed.res.TrunkQueue[0][0]; q.Points != nil || resumed.queueLogOf(q).settled() {
		t.Fatalf("a canceled FinishContext settled the queue log (%d points): it was copied out", len(q.Points))
	}
	assertRunsIdentical(t, coldA, resumed.Finish())

	stale := cancelMidRun(t, a, cfgA, 30*time.Second)
	resB := a.Run(cfgB)
	late := stale.Finish()
	resA := a.Run(cfgA)
	assertRunsIdentical(t, coldB, resB)
	assertRunsIdentical(t, coldA, resA)
	arrays := map[unsafe.Pointer]string{}
	for i, res := range []*Result{late, resB, resA} {
		name := []string{"the late finish", "the run in between", "the run after"}[i]
		for _, v := range logViews(res) {
			if other, dup := arrays[v.data]; dup && v.len > 0 {
				t.Errorf("%s of %s shares its array with %s", v.name, name, other)
			}
			arrays[v.data] = name
		}
	}
}

// (d, continued) A build that fails — in whichever phase, before or
// after it took its logs — leaves the arena whole: what it took is given
// back, the arena is as warm afterwards as before, and the next run on it
// is the run a fresh arena makes.
func TestArenaFailedBuildGivesBack(t *testing.T) {
	cfg := ringEventConfig()
	want := NewArena().Run(cfg)
	a := NewArena()
	a.Run(cfg)
	for _, tc := range []struct {
		phase, wantErr string
		breakIt        func(*Config)
	}{
		{"plan", "MeasureTrunks names link 8, out of range [0,8)", func(c *Config) { c.MeasureTrunks = []int{0, 8} }},
		{"plan", "LinkQueue names link 99, out of range [0,8)", func(c *Config) {
			c.LinkQueue = map[int]*link.QueueSpec{99: {Policy: link.PolicyRED}}
		}},
		{"partition", "switch 5 is in no region", func(c *Config) { c.Regions = [][]int{{0, 1, 2}, {3, 4}} }},
		// Interned in ports and conns, reported by assemble's tracer check:
		// three locations a host (its port, the switch's port to it, itself).
		{"ports and conns", "65536 locations", func(c *Config) {
			g := ring(8)
			g.Hosts = make([]topology.HostSpec, 22_000)
			for h := range g.Hosts {
				g.Hosts[h].Switch = h % 8
			}
			c.Topology = &g
			c.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: obs.NewMemorySink()}}
		}},
		{"events", "disconnects", func(c *Config) {
			c.Shards = 2
			c.Events = []LinkEvent{{T: 5 * time.Second, Link: 0, Down: true}, {T: 6 * time.Second, Link: 4, Down: true}}
		}},
	} {
		bad := cfg
		tc.breakIt(&bad)
		if _, err := a.BuildE(bad); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: BuildE error = %v, want one naming %q", tc.phase, err, tc.wantErr)
		}
		var s *Sim
		if n := allocatedBy(func() { s = a.Build(cfg) }); n > warmBuildMax {
			t.Errorf("%s: build after the failed build allocated %d B, want <= %d", tc.phase, n, warmBuildMax)
		}
		if !reflect.DeepEqual(want, s.Finish()) {
			t.Errorf("%s: run after the failed build differs from a fresh arena's", tc.phase)
		}
	}
}

// (e) Cut at T and resumed, 37 times over, a warm arena's run is the
// straight run; stepping on after Finish appends to the Result's own
// copy and leaves the arena's chunks alone.
func TestArenaSteppedEqualsStraight(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	a := NewArena()
	a.Run(cfg)
	straight := a.Run(cfg)

	s := a.Build(cfg)
	rng := rand.New(rand.NewSource(37))
	for now, i := time.Duration(0), 0; i < 37; i++ {
		now += time.Duration(rng.Int63n(int64(2 * cfg.Duration / 37)))
		s.RunUntil(min(now, cfg.Duration))
	}
	stepped := s.Finish()
	if !reflect.DeepEqual(straight, stepped) {
		t.Fatal("stepped run differs from the straight run")
	}

	n := len(stepped.TrunkDeps[0][0])
	s.RunUntil(cfg.Duration + 10*time.Second)
	if len(stepped.TrunkDeps[0][0]) <= n {
		t.Fatal("running past Duration logged no departure")
	}
	if !reflect.DeepEqual(straight, a.Run(cfg)) {
		t.Fatal("run after a Sim stepped past its Finish differs")
	}
}

// (f) Sharded runs take chunks per region: each log is appended by one
// region's goroutine from its own pools and settled after the runner has
// stopped.
func TestArenaShardedLending(t *testing.T) {
	cfg := twoWay(10 * time.Millisecond)
	cfg.Shards = 2
	cold := Build(cfg).Finish()
	a := NewArena()
	for run := 0; run < 2; run++ {
		if res := a.Run(cfg); !reflect.DeepEqual(cold, res) {
			t.Fatalf("sharded arena run %d differs from the cold sharded run", run)
		}
	}
	if cap(a.merge) < len(cold.Drops) {
		t.Fatalf("merge scratch holds %d records, the run dropped %d", cap(a.merge), len(cold.Drops))
	}
}

// The bound the memory of a run rests on: a cold run's logs hold what
// they wrote and at most one chunk more each. Measured as the live heap
// at the end of a longTwoWay run less what the same run holds with its
// measurement gated off (engine, pool, ports, its drop log), so the
// drop log is on both sides and out of the count.
func TestLogSlackIsOneChunk(t *testing.T) {
	cfg := longTwoWay()
	gated := cfg
	gated.MeasureTrunks, gated.MeasureConns = []int{}, []int{}
	liveAtEnd := func(c Config) (int64, *Sim) {
		base := liveHeap()
		s := NewArena().Build(c)
		s.RunUntil(c.Duration)
		return liveHeap() - base, s
	}
	other, g := liveAtEnd(gated)
	runtime.KeepAlive(g)
	live, s := liveAtEnd(cfg)
	encoded := encodedBytes(s)
	res := s.Finish()
	written, full := writtenBytes(s)
	// Less the drop log, which both runs hold.
	drops := len(res.Drops) * int(unsafe.Sizeof(dropRec{}))
	written, full = written-drops, full-chunkBytes
	held := live - other
	t.Logf("live %d B, gated %d B: the logs hold %d B for %d B written", live, other, held, written)
	// Each record beginning with an 8-byte time, the same records take
	// 4 B more a time: the layout before the time deltas.
	times, rest, _ := logRecords(s)
	if eightByte := 8*times + rest - drops; 100*encoded > 72*eightByte {
		t.Errorf("the logs encode their records in %d B, more than 0.72 of the %d B they take with 8-byte times", encoded, eightByte)
	} else {
		t.Logf("the logs encode their records in %d B, %.3f of the %d B they take with 8-byte times", encoded, float64(encoded)/float64(eightByte), eightByte)
	}
	if held < int64(written) {
		t.Fatalf("the logs hold %d B, less than the %d B they wrote: the measurement misses them", held, written)
	}
	if slack := held - int64(written); slack > int64(full) {
		t.Fatalf("the logs hold %d B over the %d B they wrote, more than the %d B of one full-size chunk a log",
			slack, written, full)
	}
}

// Snapshot.LogBytes counts the chunks the run's logs took: it never
// decreases, and at the end of the run it lies between what the logs
// wrote and that plus one chunk a log.
func TestProgressLogBytes(t *testing.T) {
	cfg := longTwoWay()
	var samples []int64
	cfg.Obs = &obs.Options{Progress: &obs.Progress{Fn: func(s obs.Snapshot) {
		samples = append(samples, s.LogBytes)
	}}}
	s := Build(cfg)
	s.Finish()
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("sample %d: LogBytes went from %d to %d", i, samples[i-1], samples[i])
		}
	}
	written, full := writtenBytes(s)
	if last := samples[len(samples)-1]; last < int64(written) || last > int64(written+full) {
		t.Fatalf("the last of %d samples has LogBytes %d; the logs wrote %d B, so want it in [%d, %d]",
			len(samples), last, written, written, written+full)
	}
}
