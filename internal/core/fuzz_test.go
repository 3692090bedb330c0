package core

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzParseLinkEvent feeds arbitrary text to the -event flag parser.
// Anything may be refused, nothing may panic, and what is accepted is
// an event a run can take: a link, a time, and exactly one of down and
// a positive bandwidth — so Validate, given enough links, objects to
// nothing but a negative link or time, which only it checks — written
// with each key once (bw= and bandwidth= count as one key).
func FuzzParseLinkEvent(f *testing.F) {
	for _, s := range []string{
		"link=1,t=120s,bw=25000", "link=3,t=2m,down", "link=0,t=0s,bandwidth=1", " link=2 , t=1h , down ",
		"", ",", "link=1", "t=1s", "link=1,t=1s", "link=1,t=1s,bw=0", "link=1,t=1s,bw=5,down", "link=1,t=1s,down=1",
		"link=-1,t=-1s,down", "link=9223372036854775807,t=2562047h,bw=9223372036854775807", "link=1e3,t=1s,down",
		"link=1,t=1s,up", "link==,t=,bw=", "link=1,link=2,t=1s,t=2s,down",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ev, err := ParseLinkEvent(text)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, tok := range strings.Split(text, ",") {
			k, _, _ := strings.Cut(strings.TrimSpace(tok), "=")
			if k == "bandwidth" {
				k = "bw"
			}
			if seen[k] {
				t.Fatalf("%q accepted as %+v, but it gives %s more than once", text, ev, k)
			}
			seen[k] = true
		}
		if ev.Down == (ev.Bandwidth != 0) || ev.Bandwidth < 0 {
			t.Fatalf("%q accepted as %+v: want exactly one of down and a positive bandwidth", text, ev)
		}
		if ev.Link < 0 || ev.Link == math.MaxInt || ev.T < 0 {
			return
		}
		if err := ev.Validate(ev.Link + 1); err != nil {
			t.Fatalf("%q accepted as %+v, which Validate refuses: %v", text, ev, err)
		}
	})
}

// FuzzRunEParameters feeds a two-way dumbbell fuzzed delays, durations
// and a buffer. RunE must refuse the Config with an error or return a
// Result; it may not panic. Runs are capped at 5 simulated seconds so
// that each input stays cheap.
func FuzzRunEParameters(f *testing.F) {
	const ms = int64(time.Millisecond)
	// trunkDelay, accessDelay, hostProcessing, startSpread, warmup, duration, buffer
	f.Add(10*ms, 0*ms, 0*ms, 1000*ms, 1000*ms, 5000*ms, 20)
	f.Add(-1*ms, 0*ms, 0*ms, 0*ms, 0*ms, 5000*ms, 20)
	f.Add(10*ms, -1*ms, 0*ms, 0*ms, 0*ms, 5000*ms, 20)
	f.Add(10*ms, 0*ms, -1*ms, 0*ms, 0*ms, 5000*ms, 20)
	f.Add(10*ms, 0*ms, 0*ms, -1*ms, 0*ms, 5000*ms, 20)
	f.Add(10*ms, 0*ms, 0*ms, 0*ms, -1*ms, 5000*ms, 20)
	f.Add(int64(math.MaxInt64), ms, ms, ms, 4999*ms, 5000*ms, -1)
	f.Fuzz(func(t *testing.T, trunkDelay, accessDelay, hostProcessing, startSpread, warmup, duration int64, buffer int) {
		if duration > 5*int64(time.Second) {
			return
		}
		cfg := twoWay(time.Duration(trunkDelay))
		cfg.AccessDelay = time.Duration(accessDelay)
		cfg.HostProcessing = time.Duration(hostProcessing)
		cfg.StartSpread = time.Duration(startSpread)
		cfg.Warmup = time.Duration(warmup)
		cfg.Duration = time.Duration(duration)
		cfg.Buffer = buffer
		res, err := RunE(cfg)
		if err == nil && res == nil {
			t.Fatal("RunE returned neither a Result nor an error")
		}
	})
}
