package core

import (
	"math"
	"testing"
)

// FuzzParseLinkEvent feeds arbitrary text to the -event flag parser.
// Anything may be refused, nothing may panic, and what is accepted is
// an event a run can take: a link, a time, and exactly one of down and
// a positive bandwidth — so Validate, given enough links, objects to
// nothing but a negative link or time, which only it checks.
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
