package obs

import "sync"

// Sink receives a tracer's event stream. The tracer drives the
// lifecycle: Begin once before the first batch, Events zero or more
// times, Close once at the end of the run.
//
// One run's tracer makes these calls one after another, never two at
// once — Events possibly on a goroutine of its own, none while the run's
// RunUntil/Finish/FinishContext is not executing. locs and events belong
// to the sink until Events returns and not after (the events are a ring
// the tracer refills): copy what is to be kept. After Begin or Events has
// returned an error the sink sees only Close. DESIGN.md §10 has the
// contract in full.
//
// A sink shared by several runs (the runner fans runs over a worker
// pool) sees their calls interleave and must lock around each. Of the
// shipped sinks only MemorySink may be shared that way; a store writer
// (tstore.Writer) serves one run at a time. Each Events call receives
// the emitting run's full location table so batches from different runs
// stay self-describing — a Loc index is only meaningful against the
// table it arrived with.
type Sink interface {
	Begin() error
	Events(locs []string, events []Event) error
	Close() error
}

func locName(locs []string, l Loc) string {
	if int(l) < len(locs) {
		return locs[int(l)]
	}
	return "?"
}

// MemorySink accumulates events in memory for tests. It interns
// location names itself, so it can absorb batches from several runs
// and keep every event resolvable through its own table.
type MemorySink struct {
	mu     sync.Mutex
	locs   []string
	index  map[string]Loc
	events []Event
	begun  int
	closed int
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{index: map[string]Loc{}}
}

// Begin counts lifecycle calls so tests can assert the contract.
func (s *MemorySink) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begun++
	return nil
}

// Events re-interns each batch against the sink's own location table.
func (s *MemorySink) Events(locs []string, events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range events {
		name := locName(locs, ev.Loc)
		loc, ok := s.index[name]
		if !ok {
			loc = Loc(len(s.locs))
			s.index[name] = loc
			s.locs = append(s.locs, name)
		}
		ev.Loc = loc
		s.events = append(s.events, ev)
	}
	return nil
}

// Close counts lifecycle calls.
func (s *MemorySink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed++
	return nil
}

// Snapshot returns copies of the accumulated location table and events.
func (s *MemorySink) Snapshot() (locs []string, events []Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.locs...), append([]Event(nil), s.events...)
}

// Len returns the number of events absorbed so far.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// Lifecycle returns how many times Begin and Close have been called.
func (s *MemorySink) Lifecycle() (begun, closed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.begun, s.closed
}
