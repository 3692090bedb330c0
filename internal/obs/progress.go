package obs

import "time"

// Progress samples a run as it executes. The engine loop checks
// between event batches — never by scheduling events — so enabling
// progress cannot change a run's event sequence or its Result.
//
// The zero value of Every/EveryEvents means "not on that axis"; with
// both zero the observer fires once per internal batch (~4096 events).
type Progress struct {
	// Every fires the callback each time simulated time advances by
	// this much (e.g. 10*time.Second fires at sim-time 10s, 20s, ...).
	Every time.Duration
	// EveryEvents fires the callback each time this many engine events
	// have been processed.
	EveryEvents uint64
	// Fn receives the samples. Required. It runs on the simulating
	// goroutine: keep it fast, and do not touch the running Sim from it.
	Fn func(Snapshot)
}

// Snapshot is one progress sample.
type Snapshot struct {
	// Now is the current simulated time; End is the run's configured
	// end time (warmup + duration).
	Now, End time.Duration
	// Events is the cumulative count of processed engine events.
	Events uint64
	// LogBytes is the memory the run's measurement logs hold: the bytes
	// of every chunk they have taken, written or not. It never decreases
	// during a run.
	LogBytes int64
}

// Frac returns completion as a fraction of simulated time, clamped to
// [0, 1]; 0 when End is unknown.
func (s Snapshot) Frac() float64 {
	if s.End <= 0 {
		return 0
	}
	f := float64(s.Now) / float64(s.End)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
