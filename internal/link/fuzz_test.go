package link

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/packet"
)

// FuzzParseQueueSpec feeds arbitrary text to the -queue flag parser. An
// accepted spec must build its discipline — parsing is the last check
// before a run constructs one per port — and the discipline is nil
// exactly for drop-tail, which the port runs itself.
func FuzzParseQueueSpec(f *testing.F) {
	for _, s := range []string{
		"", "drop-tail", "random-drop", "fair-queue", "red", "red:min=5,max=15,p=0.02,wq=0.002",
		"red:min_th=1,max_th=2,max_p=1,wq=1", "red:", "red:min", "red:min=x", "red:min=15,max=5", "red:p=2",
		"red:wq=-1", "red:min=NaN", "red:max=Inf", "red:min=1e308,max=1e309", "drop-tail:min=1", "fq", " red : min = 5 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseQueueSpec(text)
		if err != nil {
			return
		}
		d, err := s.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%q accepted as %+v but does not build: %v", text, *s, err)
		}
		if (d == nil) != (s.policy() == PolicyDropTail) {
			t.Fatalf("%q: spec %+v built %v", text, *s, d)
		}
	})
}

// FuzzParseBehaviorSpec feeds arbitrary text to the -behavior flag
// parser. The trace= term opens a file, which is the file system's
// business, not the parser's: inputs naming one are skipped, and
// FuzzParseRateTrace covers the file format. An accepted spec must
// build, and the behavior it builds must answer for a packet.
func FuzzParseBehaviorSpec(f *testing.F) {
	for _, s := range []string{
		"", "loss=0.01", "ge=0.01/0.3/0.5", "jitter=5ms", "jitter=5ms,reorder", "loss=0.01,jitter=2ms", "reorder",
		"loss=2", "loss=-1", "loss=NaN", "ge=1/2", "ge=a/b/c", "ge=0/0/0", "loss=0.1,ge=0.1/0.1/0.1", "jitter=-1s",
		"jitter=2562047h", "jitter=2562047h47m16.854775807s", "jitter", "foo=1", ",,,", " loss=0.5 , reorder , jitter=1ns ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if strings.Contains(text, "trace") {
			t.Skip()
		}
		s, err := ParseBehaviorSpec(text)
		if err != nil {
			return
		}
		b, err := s.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%q accepted as %+v but does not build: %v", text, *s, err)
		}
		if (b == nil) != s.IsZero() {
			t.Fatalf("%q: spec %+v built %v", text, *s, b)
		}
		if b != nil {
			if extra, _ := b.Impair(&packet.Packet{Size: 500}, time.Second); extra < 0 || extra > s.Jitter {
				t.Fatalf("%q: %v of extra delay under a jitter bound of %v", text, extra, s.Jitter)
			}
			if r := b.Rate(time.Second); r != 0 {
				t.Fatalf("%q: rate %d without a trace, want 0 (the port's own)", text, r)
			}
		}
	})
}

// FuzzParseRateTrace feeds arbitrary bytes to the rate-trace file
// parser. An accepted schedule has a positive period and answers RateAt
// with one of its own positive rates at any time, before, inside and
// cycles past the schedule.
func FuzzParseRateTrace(f *testing.F) {
	for _, s := range []string{
		"250ms 32000\n250ms 64000\n", "# comment\n\n1s 50000", "1s 1", "", "\n\n", "1s", "1s x", "x 1", "0s 1", "1s 0",
		"-1s 5", "1s -5", "1s 5 extra", "2562047h 1\n2562047h 1\n2562047h 1\n2562047h 1\n", "1ns 9223372036854775807",
		"1s 5\r\n2s 6\r\n", strings.Repeat("1ms 1000\n", 300),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, err := ParseRateTrace(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if rt.Cycle() <= 0 || len(rt.Steps()) == 0 {
			t.Fatalf("accepted a schedule with period %v and %d steps", rt.Cycle(), len(rt.Steps()))
		}
		rates := make(map[int64]bool)
		for _, st := range rt.Steps() {
			rates[st.Rate] = true
		}
		for _, now := range []time.Duration{-time.Second, 0, 1, rt.Cycle() - 1, rt.Cycle(), 3*rt.Cycle()/2 + 7, 1<<62 + 12345} {
			if r := rt.RateAt(now); r <= 0 || !rates[r] {
				t.Fatalf("RateAt(%v) = %d, not a rate of the schedule %v", now, r, rt.Steps())
			}
		}
	})
}
