package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestSchedulersFireIdentically is the scheduler-identity property test:
// random programs of schedule / same-instant ties / cancel / rearm /
// partial-run operations, interpreted in lockstep on a heap engine and a
// wheel engine, must fire exactly the same events in exactly the same
// order, with clocks and pending counts agreeing at every step. Delays
// are drawn to cover every wheel regime — sub-tick ties, all four
// levels, and beyond-horizon (~625h) overflow events.
func TestSchedulersFireIdentically(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		he := NewSched(SchedHeap)
		we := NewSched(SchedWheel)

		var hLog, wLog []int
		type handle struct {
			he, we   *Event
			hfn, wfn func()
			state    int // 0 pending, 1 fired, 2 canceled
		}
		var handles []*handle
		nextID := 0

		delay := func() time.Duration {
			switch rng.Intn(6) {
			case 0:
				return 0 // fires at the current instant
			case 1:
				// Sub-tick: collides within one wheel slot.
				return time.Duration(rng.Intn(60)) * time.Microsecond
			case 2:
				// Level 0/1 territory, the TCP-workload sweet spot.
				return time.Duration(rng.Intn(50)) * time.Millisecond
			case 3:
				return time.Duration(rng.Intn(300)) * time.Second // level 2
			case 4:
				return time.Duration(rng.Intn(20)) * time.Hour // level 3
			default:
				// Beyond the 2^32-tick (~625h) horizon: overflow list.
				return 700*time.Hour + time.Duration(rng.Intn(500))*time.Hour
			}
		}
		schedule := func(d time.Duration) {
			id := nextID
			nextID++
			hd := &handle{}
			hd.hfn = func() { hLog = append(hLog, id); hd.state = 1 }
			hd.wfn = func() { wLog = append(wLog, id); hd.state = 1 }
			hd.he = he.Schedule(d, hd.hfn)
			hd.we = we.Schedule(d, hd.wfn)
			handles = append(handles, hd)
		}
		// pick returns a random still-pending handle, or nil.
		pick := func() *handle {
			if len(handles) == 0 {
				return nil
			}
			start := rng.Intn(len(handles))
			for i := 0; i < len(handles); i++ {
				if hd := handles[(start+i)%len(handles)]; hd.state == 0 {
					return hd
				}
			}
			return nil
		}

		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				schedule(delay())
			case 4:
				// Same-instant tie batch: must fire in scheduling order.
				d := delay()
				for k := 0; k < 3; k++ {
					schedule(d)
				}
			case 5:
				if hd := pick(); hd != nil {
					hd.he.Cancel()
					hd.we.Cancel()
					hd.state = 2
				}
			case 6:
				// Rearm: in-place when the wheel bucket is unchanged,
				// cancel+reschedule otherwise — identical either way.
				if hd := pick(); hd != nil {
					at := he.Now() + delay()
					hd.he = he.rearm(hd.he, at, hd.hfn)
					hd.we = we.rearm(hd.we, at, hd.wfn)
				}
			case 7, 8:
				n := rng.Intn(8) + 1
				for i := 0; i < n; i++ {
					if !he.Step() {
						break
					}
				}
				for i := 0; i < n; i++ {
					if !we.Step() {
						break
					}
				}
			case 9:
				until := he.Now() + delay()
				he.RunUntil(until)
				we.RunUntil(until)
			}
			if he.Now() != we.Now() {
				t.Fatalf("trial %d op %d: clocks diverged: heap %v, wheel %v", trial, op, he.Now(), we.Now())
			}
			if he.Pending() != we.Pending() {
				t.Fatalf("trial %d op %d: pending diverged: heap %d, wheel %d", trial, op, he.Pending(), we.Pending())
			}
		}
		he.Run()
		we.Run()

		if len(hLog) != len(wLog) {
			t.Fatalf("trial %d: heap fired %d events, wheel fired %d", trial, len(hLog), len(wLog))
		}
		for i := range hLog {
			if hLog[i] != wLog[i] {
				t.Fatalf("trial %d: firing order diverged at %d: heap %d, wheel %d", trial, i, hLog[i], wLog[i])
			}
		}
		if he.Pending() != 0 || we.Pending() != 0 {
			t.Fatalf("trial %d: events left after drain: heap %d, wheel %d", trial, he.Pending(), we.Pending())
		}
	}
}

// burstWorld is one engine's half of TestSchedulersAgreeOnBursts. Both
// halves run the same program from the same seed; everything a callback
// does is drawn from the world's own rng, so the two stay in step for
// exactly as long as their firing orders agree.
type burstWorld struct {
	eng     *Engine
	rng     *rand.Rand
	log     []int
	handles []*burstHandle
	timers  []*Timer
}

type burstHandle struct {
	ev   *Event
	done bool // fired or cancelled
}

const tickDur = time.Duration(1) << tickShift

// spawn schedules event number len(handles) after d. When it fires it
// logs itself and, while depth lasts, does one of the things a packet
// event does to the queue around it: schedules at the same instant,
// inside the tick being drained, a few slots ahead; cancels a pending
// event; re-arms or stops a timer.
func (w *burstWorld) spawn(d time.Duration, depth int) {
	id := len(w.handles)
	h := &burstHandle{}
	w.handles = append(w.handles, h)
	h.ev = w.eng.Schedule(d, func() {
		w.log = append(w.log, id)
		h.done = true
		if depth == 0 {
			return
		}
		switch w.rng.Intn(10) {
		case 0:
			w.spawn(0, depth-1)
		case 1:
			w.spawn(time.Duration(w.rng.Int63n(int64(tickDur))), depth-1)
		case 2:
			w.spawn(time.Duration(w.rng.Int63n(int64(8*tickDur))), depth-1)
		case 3:
			w.cancel(w.rng.Intn(len(w.handles)))
		case 4, 5:
			w.timers[w.rng.Intn(len(w.timers))].Reset(time.Duration(w.rng.Int63n(int64(64 * tickDur))))
		case 6:
			w.timers[w.rng.Intn(len(w.timers))].Stop()
		}
	})
}

// cancel cancels the first pending event at or after handle i.
func (w *burstWorld) cancel(i int) {
	for _, h := range w.handles[i:] {
		if !h.done {
			h.ev.Cancel()
			h.done = true
			return
		}
	}
}

// TestSchedulersAgreeOnBursts drives the heap and the wheel in lockstep
// through what a large network does to a scheduler: bursts of 10 to 5000
// events inside one 64-slot occupancy word — so the wheel's active run
// is a fraction of the burst and the rest is still in buckets when the
// callbacks schedule behind the cursor, cancel, and re-arm timers into
// the same span — with the clock parked between events (the cursor has
// then peeked ahead of it) and each trial's first burst straddling a
// level-0 rotation boundary. The firing order, the clock and the pending
// count must agree after every operation.
func TestSchedulersAgreeOnBursts(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		drv := rand.New(rand.NewSource(int64(trial) + 100))
		worlds := [2]*burstWorld{{eng: NewSched(SchedHeap)}, {eng: NewSched(SchedWheel)}}
		for _, w := range worlds {
			w := w
			w.rng = rand.New(rand.NewSource(int64(trial) + 7))
			for i := 0; i < 8; i++ {
				id := -1 - i
				w.timers = append(w.timers, NewTimer(w.eng, func() { w.log = append(w.log, id) }))
			}
		}
		both := func(fn func(w *burstWorld)) {
			fn(worlds[0])
			fn(worlds[1])
		}
		check := func(op int, what string) {
			t.Helper()
			h, w := worlds[0], worlds[1]
			if h.eng.Now() != w.eng.Now() || h.eng.Pending() != w.eng.Pending() || len(h.log) != len(w.log) {
				t.Fatalf("trial %d op %d (%s): heap at %v with %d pending and %d fired, wheel at %v with %d and %d",
					trial, op, what, h.eng.Now(), h.eng.Pending(), len(h.log), w.eng.Now(), w.eng.Pending(), len(w.log))
			}
			for i := range h.log {
				if h.log[i] != w.log[i] {
					t.Fatalf("trial %d op %d (%s): firing order diverged at %d: heap %d, wheel %d", trial, op, what, i, h.log[i], w.log[i])
				}
			}
			both(func(w *burstWorld) { w.log = w.log[:0] })
		}
		// burst files n events over span from base on; one time in four is
		// rounded to a 100 µs grid so that equal timestamps occur.
		burst := func(n int, base, span time.Duration) {
			delays := make([]time.Duration, n)
			for i := range delays {
				delays[i] = base + time.Duration(drv.Int63n(int64(span)))
				if drv.Intn(4) == 0 {
					delays[i] = delays[i].Truncate(100 * time.Microsecond)
				}
			}
			both(func(w *burstWorld) {
				for _, d := range delays {
					w.spawn(d, 3)
				}
			})
		}

		// Park the clock 30 ticks short of a level-0 rotation boundary and
		// lay the first burst across it.
		start := time.Duration(1+drv.Intn(5))*numSlots*tickDur - 30*tickDur
		both(func(w *burstWorld) { w.eng.RunUntil(start) })
		burst(10+drv.Intn(4990), 0, 64*tickDur)
		check(-1, "first burst")

		for op := 0; op < 60; op++ {
			what := ""
			switch drv.Intn(8) {
			case 0:
				what = "burst"
				burst(10+drv.Intn(4990), time.Duration(drv.Int63n(int64(40*tickDur))), 64*tickDur)
			case 1, 2:
				what = "run until"
				d := time.Duration(drv.Int63n(int64(20 * tickDur)))
				both(func(w *burstWorld) { w.eng.RunUntil(w.eng.Now() + d) })
			case 3:
				what = "step"
				n := 1 + drv.Intn(200)
				both(func(w *burstWorld) {
					for i := 0; i < n && w.eng.Step(); i++ {
					}
				})
			case 4:
				// After a RunUntil the cursor sits on the slot of the next
				// pending event; these land at or behind it.
				what = "schedule near"
				burst(1+drv.Intn(20), 0, 2*tickDur)
			case 5:
				what = "cancel"
				n, i := 1+drv.Intn(50), drv.Intn(len(worlds[0].handles))
				both(func(w *burstWorld) {
					for k := 0; k < n; k++ {
						w.cancel(i)
					}
				})
			case 6:
				what = "timer reset"
				i, d := drv.Intn(8), time.Duration(drv.Int63n(int64(64*tickDur)))
				both(func(w *burstWorld) { w.timers[i].Reset(d) })
			case 7:
				what = "timer stop"
				i := drv.Intn(8)
				both(func(w *burstWorld) { w.timers[i].Stop() })
			}
			check(op, what)
		}
		both(func(w *burstWorld) { w.eng.Run() })
		check(60, "drain")
		if n := worlds[1].eng.Pending(); n != 0 {
			t.Fatalf("trial %d: %d events left after the drain", trial, n)
		}
	}
}
