package analysis

import (
	"testing"
	"testing/quick"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func drop(t float64, conn int, kind packet.Kind) trace.DropEvent {
	return trace.DropEvent{T: sec(t), Conn: conn, Kind: kind}
}

func TestEpochsGrouping(t *testing.T) {
	drops := []trace.DropEvent{
		drop(10.0, 1, packet.Data),
		drop(10.2, 2, packet.Data),
		drop(44.0, 1, packet.Data),
		drop(44.1, 2, packet.Data),
		drop(80.0, 1, packet.Data),
	}
	eps := Epochs(drops, sec(5))
	if len(eps) != 3 {
		t.Fatalf("epochs = %d, want 3", len(eps))
	}
	if len(eps[0].Drops) != 2 || len(eps[1].Drops) != 2 || len(eps[2].Drops) != 1 {
		t.Fatalf("epoch sizes = %d,%d,%d", len(eps[0].Drops), len(eps[1].Drops), len(eps[2].Drops))
	}
	if eps[0].Start != sec(10) || eps[0].End != sec(10.2) {
		t.Fatalf("epoch 0 span = [%v,%v]", eps[0].Start, eps[0].End)
	}
}

func TestEpochsUnsortedInput(t *testing.T) {
	drops := []trace.DropEvent{drop(44, 1, packet.Data), drop(10, 2, packet.Data)}
	eps := Epochs(drops, sec(5))
	if len(eps) != 2 || eps[0].Start != sec(10) {
		t.Fatalf("unsorted input mishandled: %+v", eps)
	}
}

func TestEpochsEmpty(t *testing.T) {
	if Epochs(nil, sec(1)) != nil {
		t.Fatal("empty drops should give nil epochs")
	}
}

// Property: every drop lands in exactly one epoch and epochs are
// separated by more than the gap.
func TestEpochsPartitionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var drops []trace.DropEvent
		for _, r := range raw {
			drops = append(drops, drop(float64(r%600), int(r%3), packet.Data))
		}
		gap := sec(5)
		eps := Epochs(drops, gap)
		total := 0
		for i, e := range eps {
			total += len(e.Drops)
			if i > 0 && e.Start-eps[i-1].End <= gap {
				return false
			}
			for j := 1; j < len(e.Drops); j++ {
				if e.Drops[j].T-e.Drops[j-1].T > gap {
					return false
				}
			}
		}
		return total == len(drops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseClassification(t *testing.T) {
	a := trace.NewSeries("a")
	b := trace.NewSeries("b")
	for i := 0; i < 200; i++ {
		// Triangle waves, period 40.
		v := float64(i % 40)
		if v > 20 {
			v = 40 - v
		}
		a.Append(sec(float64(i)), v)
		b.Append(sec(float64(i)), 20-v)
	}
	mode, r := Phase(a, b, 0, sec(200), sec(1))
	if mode != PhaseOut {
		t.Fatalf("mode = %v (r=%v), want out-of-phase", mode, r)
	}
	mode, _ = Phase(a, a, 0, sec(200), sec(1))
	if mode != PhaseIn {
		t.Fatalf("self-phase = %v, want in-phase", mode)
	}
	flat := trace.NewSeries("flat")
	flat.Append(0, 1)
	mode, r = Phase(a, flat, 0, sec(200), sec(1))
	if mode != PhaseMixed || r != 0 {
		t.Fatalf("flat phase = %v r=%v, want mixed 0", mode, r)
	}
	if PhaseIn.String() != "in-phase" || PhaseOut.String() != "out-of-phase" || PhaseMixed.String() != "mixed" {
		t.Fatal("PhaseMode strings wrong")
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(sec(9), sec(10)); got != 0.9 {
		t.Fatalf("util = %v, want 0.9", got)
	}
	if got := Utilization(sec(1), 0); got != 0 {
		t.Fatalf("util with zero elapsed = %v, want 0", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]int{100, 100, 100}); got != 1 {
		t.Fatalf("equal shares = %v, want 1", got)
	}
	if got := JainIndex([]int{300, 0, 0}); got < 0.333 || got > 0.334 {
		t.Fatalf("monopoly = %v, want 1/3", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
	if got := JainIndex([]int{0, 0}); got != 0 {
		t.Fatalf("all-zero = %v, want 0", got)
	}
	mid := JainIndex([]int{100, 50})
	if mid <= 0.5 || mid >= 1 {
		t.Fatalf("skewed = %v, want in (1/2, 1)", mid)
	}
}

// Property: the Jain index always lies in [1/n, 1] for non-degenerate
// inputs.
func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		goodput := make([]int, len(raw))
		nonzero := false
		for i, r := range raw {
			goodput[i] = int(r)
			if r != 0 {
				nonzero = true
			}
		}
		j := JainIndex(goodput)
		if !nonzero {
			return j == 0
		}
		n := float64(len(goodput))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func deps(conns ...int) []trace.Departure {
	out := make([]trace.Departure, len(conns))
	for i, c := range conns {
		out[i] = trace.NewDeparture(sec(float64(i)), c, packet.Data, i)
	}
	return out
}

func TestClustering(t *testing.T) {
	if got := Clustering(deps(1, 1, 1, 2, 2, 2)); got != 0.8 {
		t.Fatalf("clustered = %v, want 0.8", got)
	}
	if got := Clustering(deps(1, 2, 1, 2, 1, 2)); got != 0 {
		t.Fatalf("interleaved = %v, want 0", got)
	}
	if got := Clustering(deps(1)); got != 1 {
		t.Fatalf("single departure = %v, want 1", got)
	}
}

func TestMeanRunLength(t *testing.T) {
	if got := MeanRunLength(deps(1, 1, 1, 2, 2, 2)); got != 3 {
		t.Fatalf("run length = %v, want 3", got)
	}
	if got := MeanRunLength(deps(1, 2, 1, 2)); got != 1 {
		t.Fatalf("run length = %v, want 1", got)
	}
	if got := MeanRunLength(nil); got != 0 {
		t.Fatalf("empty run length = %v, want 0", got)
	}
}

func TestFilterDepartures(t *testing.T) {
	all := []trace.Departure{
		trace.NewDeparture(0, 1, packet.Data, 0),
		trace.NewDeparture(0, 1, packet.Ack, 0),
		trace.NewDeparture(0, 2, packet.Data, 0),
	}
	data := FilterDepartures(all, packet.Data)
	if len(data) != 2 {
		t.Fatalf("filtered %d, want 2", len(data))
	}
}

func TestDeparturesFrom(t *testing.T) {
	log := deps(1, 2, 1, 2, 1) // at 0 s, 1 s, …, 4 s
	log[2].T = log[1].T        // two departures at 1 s
	for _, c := range []struct {
		from time.Duration
		want int
	}{{-sec(1), 5}, {0, 5}, {sec(0.5), 4}, {sec(1), 4}, {sec(1.5), 2}, {sec(4), 1}, {sec(5), 0}} {
		got := DeparturesFrom(log, c.from)
		if len(got) != c.want {
			t.Errorf("DeparturesFrom(%v): %d departures, want %d", c.from, len(got), c.want)
			continue
		}
		if c.want > 0 && &got[0] != &log[len(log)-c.want] {
			t.Errorf("DeparturesFrom(%v) is not a suffix of the log", c.from)
		}
	}
	if got := DeparturesFrom(nil, 0); len(got) != 0 {
		t.Errorf("DeparturesFrom(nil): %d departures", len(got))
	}
}

func TestAckCompression(t *testing.T) {
	dataTx := 80 * time.Millisecond
	// Clocked arrivals at the data rate, then a compressed cluster at
	// the ACK rate (8 ms).
	arrivals := []time.Duration{
		sec(1), sec(1) + 80*time.Millisecond, sec(1) + 160*time.Millisecond,
		sec(2), sec(2) + 8*time.Millisecond, sec(2) + 16*time.Millisecond,
	}
	st := AckCompression(arrivals, dataTx, 0)
	if st.Gaps != 5 {
		t.Fatalf("gaps = %d, want 5", st.Gaps)
	}
	if st.Compressed != 2 {
		t.Fatalf("compressed = %d, want 2", st.Compressed)
	}
	if st.MinGap != 8*time.Millisecond {
		t.Fatalf("min gap = %v, want 8ms", st.MinGap)
	}
	if got := st.CompressedFraction(); got != 0.4 {
		t.Fatalf("fraction = %v, want 0.4", got)
	}
	// Warm-up exclusion drops the first cluster entirely.
	st = AckCompression(arrivals, dataTx, sec(1.5))
	if st.Gaps != 2 || st.Compressed != 2 {
		t.Fatalf("after warmup: %+v", st)
	}
	if (CompressionStats{}).CompressedFraction() != 0 {
		t.Fatal("empty stats fraction should be 0")
	}
}

func TestRapidRises(t *testing.T) {
	q := trace.NewSeries("q")
	// Slow rise: 5 packets over 5 s — not rapid.
	for i := 0; i <= 5; i++ {
		q.Append(sec(float64(i)), float64(i))
	}
	// Fast rise: 5 packets in 40 ms.
	base := sec(10)
	for i := 0; i <= 5; i++ {
		q.Append(base+time.Duration(i)*8*time.Millisecond, float64(i))
	}
	got := RapidRises(q, 0, sec(20), 80*time.Millisecond, 4)
	if got != 1 {
		t.Fatalf("rapid rises = %d, want 1", got)
	}
}

func TestCoupledSwings(t *testing.T) {
	a := trace.NewSeries("a")
	b := trace.NewSeries("b")
	// Three coupled events: a jumps up while b drops, at t=10, 20, 30.
	a.Append(0, 5)
	b.Append(0, 20)
	for _, base := range []float64{10, 20, 30} {
		t0 := sec(base)
		for i := 0; i <= 5; i++ {
			dt := time.Duration(i) * 8 * time.Millisecond
			a.Append(t0+dt, 5+float64(i))
			b.Append(t0+dt, 20-float64(i))
		}
		a.Append(t0+sec(1), 5)
		b.Append(t0+sec(1), 20)
	}
	got := CoupledSwings(a, b, 0, sec(40), 80*time.Millisecond, 200*time.Millisecond, 4)
	if got != 1 {
		t.Fatalf("coupled fraction = %v, want 1", got)
	}
	// Against an unrelated flat series: no coupling.
	flat := trace.NewSeries("flat")
	flat.Append(0, 7)
	if got := CoupledSwings(a, flat, 0, sec(40), 80*time.Millisecond, 200*time.Millisecond, 4); got != 0 {
		t.Fatalf("coupling with flat = %v, want 0", got)
	}
	// No rises at all: 0, not NaN.
	if got := CoupledSwings(flat, a, 0, sec(40), 80*time.Millisecond, 200*time.Millisecond, 4); got != 0 {
		t.Fatalf("no-rise coupling = %v, want 0", got)
	}
}

func TestClassifyTwoConnDropsInPhase(t *testing.T) {
	var epochs []Epoch
	for i := 0; i < 10; i++ {
		t0 := float64(30 * i)
		epochs = append(epochs, Epochs([]trace.DropEvent{
			drop(t0, 1, packet.Data), drop(t0+0.1, 2, packet.Data),
		}, sec(5))...)
	}
	p := ClassifyTwoConnDrops(epochs, 1, 2)
	if p.Epochs != 10 || p.SingleEach != 10 || p.OneSided != 0 {
		t.Fatalf("pattern = %+v", p)
	}
	if p.DataDropFraction() != 1 {
		t.Fatalf("data fraction = %v, want 1", p.DataDropFraction())
	}
}

func TestClassifyTwoConnDropsOutOfPhaseAlternating(t *testing.T) {
	var epochs []Epoch
	for i := 0; i < 10; i++ {
		t0 := float64(30 * i)
		loser := 1 + i%2
		epochs = append(epochs, Epochs([]trace.DropEvent{
			drop(t0, loser, packet.Data), drop(t0+0.1, loser, packet.Data),
		}, sec(5))...)
	}
	p := ClassifyTwoConnDrops(epochs, 1, 2)
	if p.OneSided != 10 {
		t.Fatalf("one-sided = %d, want 10", p.OneSided)
	}
	if p.OneSidedPairs != 9 || p.Alternations != 9 {
		t.Fatalf("alternations = %d/%d, want 9/9", p.Alternations, p.OneSidedPairs)
	}
	if p.AlternationRate() != 1 {
		t.Fatalf("alternation rate = %v, want 1", p.AlternationRate())
	}
}

func TestAlternationRateEmptyIsZero(t *testing.T) {
	if (TwoConnDropPattern{}).AlternationRate() != 0 {
		t.Fatal("empty alternation rate should be 0")
	}
	if (TwoConnDropPattern{}).DataDropFraction() != 0 {
		t.Fatal("empty data fraction should be 0")
	}
}
