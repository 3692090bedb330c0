package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"tahoedyn/internal/packet"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestAppendAndAt(t *testing.T) {
	s := NewSeries("q")
	s.Append(sec(1), 5)
	s.Append(sec(3), 7)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0}, {sec(0.5), 0}, {sec(1), 5}, {sec(2), 5}, {sec(3), 7}, {sec(10), 7},
	}
	for _, c := range cases {
		if got := s.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestAppendEqualTimeOverwrites(t *testing.T) {
	s := NewSeries("q")
	s.Append(sec(1), 5)
	s.Append(sec(1), 9)
	if s.Len() != 1 || s.At(sec(1)) != 9 {
		t.Fatalf("equal-time append: len=%d at=%v", s.Len(), s.At(sec(1)))
	}
}

func TestAppendBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-order append")
		}
	}()
	s := NewSeries("q")
	s.Append(sec(2), 1)
	s.Append(sec(1), 1)
}

func TestMaxMinIncludeValueEnteringWindow(t *testing.T) {
	s := NewSeries("q")
	s.Append(sec(0), 10)
	s.Append(sec(5), 2)
	// Window [2,4]: no points inside, value entering is 10.
	if got := s.Max(sec(2), sec(4)); got != 10 {
		t.Fatalf("Max = %v, want 10", got)
	}
	if got := s.Min(sec(2), sec(4)); got != 10 {
		t.Fatalf("Min = %v, want 10", got)
	}
	if got := s.Min(sec(2), sec(6)); got != 2 {
		t.Fatalf("Min over drop = %v, want 2", got)
	}
}

func TestSample(t *testing.T) {
	s := NewSeries("q")
	s.Append(sec(0), 1)
	s.Append(sec(2), 3)
	got := s.Sample(sec(0), sec(4), sec(1))
	want := []float64{1, 1, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sample = %v, want %v", got, want)
		}
	}
}

// Property: a cursor advanced over any nondecreasing query sequence
// agrees exactly with the binary-search At.
func TestCursorMatchesAt(t *testing.T) {
	f := func(raw []uint16, queries []uint16) bool {
		s := NewSeries("q")
		last := time.Duration(-1)
		for i, r := range raw {
			tm := time.Duration(r) * time.Millisecond
			if tm <= last {
				tm = last + time.Millisecond
			}
			last = tm
			s.Append(tm, float64(i))
		}
		// Sort the queries to make them nondecreasing.
		qs := make([]time.Duration, len(queries))
		for i, q := range queries {
			qs[i] = time.Duration(q) * time.Millisecond
		}
		for i := 1; i < len(qs); i++ {
			for j := i; j > 0 && qs[j] < qs[j-1]; j-- {
				qs[j], qs[j-1] = qs[j-1], qs[j]
			}
		}
		cur := s.Cursor()
		for _, q := range qs {
			if cur.At(q) != s.At(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorRepeatedQueries(t *testing.T) {
	s := NewSeries("q")
	s.Append(sec(1), 5)
	s.Append(sec(3), 7)
	cur := s.Cursor()
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{{0, 0}, {0, 0}, {sec(1), 5}, {sec(1), 5}, {sec(2), 5}, {sec(3), 7}, {sec(3), 7}, {sec(9), 7}} {
		if got := cur.At(c.at); got != c.want {
			t.Fatalf("cursor At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestTimeAverage(t *testing.T) {
	s := NewSeries("q")
	s.Append(sec(0), 0)
	s.Append(sec(1), 10)
	s.Append(sec(3), 0)
	// [0,4]: 1s at 0, 2s at 10, 1s at 0 → mean 5.
	if got := s.TimeAverage(sec(0), sec(4)); got != 5 {
		t.Fatalf("TimeAverage = %v, want 5", got)
	}
	if got := s.TimeAverage(sec(4), sec(4)); got != 0 {
		t.Fatalf("empty window TimeAverage = %v, want 0", got)
	}
}

func TestCorrelateInPhaseAndOutOfPhase(t *testing.T) {
	a := NewSeries("a")
	b := NewSeries("b")
	c := NewSeries("c")
	for i := 0; i < 100; i++ {
		v := math.Sin(float64(i) / 5)
		a.Append(sec(float64(i)), v)
		b.Append(sec(float64(i)), 2*v+1) // same phase, different scale
		c.Append(sec(float64(i)), -v)    // opposite phase
	}
	if got := Correlate(a, b, 0, sec(100), sec(1)); got < 0.99 {
		t.Fatalf("in-phase correlation = %v, want ≈1", got)
	}
	if got := Correlate(a, c, 0, sec(100), sec(1)); got > -0.99 {
		t.Fatalf("out-of-phase correlation = %v, want ≈-1", got)
	}
}

func TestCorrelateConstantSeriesIsZero(t *testing.T) {
	a := NewSeries("a")
	b := NewSeries("b")
	for i := 0; i < 10; i++ {
		a.Append(sec(float64(i)), 1)
		b.Append(sec(float64(i)), float64(i))
	}
	if got := Correlate(a, b, 0, sec(10), sec(1)); got != 0 {
		t.Fatalf("correlation with constant = %v, want 0", got)
	}
}

// Property: TimeAverage always lies within [Min, Max] of the window.
func TestTimeAverageBoundedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		s := NewSeries("p")
		for i, r := range raw {
			s.Append(sec(float64(i)), float64(r))
		}
		from, to := sec(0), sec(float64(len(raw)))
		avg := s.TimeAverage(from, to)
		return avg >= s.Min(from, to)-1e-9 && avg <= s.Max(from, to)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: At is idempotent with Sample — sampling at exact point times
// returns the stored values.
func TestSampleMatchesAtProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewSeries("p")
		for i, r := range raw {
			s.Append(sec(float64(i)), float64(r))
		}
		for i := range raw {
			if s.At(sec(float64(i))) != float64(raw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDepartureLayout holds a Departure to 16 bytes and NewDeparture to
// reading back what it was given, at the ends of each field's range. A
// sequence number past 2³¹ reads back as int32(seq), which is what the
// trace store holds for the same packet.
func TestDepartureLayout(t *testing.T) {
	if got := unsafe.Sizeof(Departure{}); got != 16 {
		t.Fatalf("a Departure is %d bytes, want 16", got)
	}
	const max31 = 1<<31 - 1
	for _, c := range []struct {
		conn, seq int
		wantSeq   int32
	}{
		{1, 0, 0},
		{max31, 0, 0},
		{1, max31, max31},
		{max31, max31, max31},
		{2, 1<<31 + 5, int32(-1<<31 + 5)},
		{3, 1<<32 + 7, 7},
	} {
		for _, kind := range []packet.Kind{packet.Data, packet.Ack} {
			at := 3*time.Second + time.Nanosecond
			d := NewDeparture(at, c.conn, kind, c.seq)
			if d.T != at || d.Conn() != c.conn || d.Kind() != kind || d.Seq != c.wantSeq {
				t.Errorf("NewDeparture(%v, %d, %v, %d) reads back T %v, conn %d, kind %v, seq %d; want seq %d",
					at, c.conn, kind, c.seq, d.T, d.Conn(), d.Kind(), d.Seq, c.wantSeq)
			}
		}
	}
}
