package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"tahoedyn/internal/packet"
)

// jsonlVersion is the schema version stamped on the JSONL header line.
// Bump it when the line format changes incompatibly.
const jsonlVersion = 1

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
// Sinks must be safe for concurrent use when shared across runs (the
// runner fans runs over a worker pool); the shipped sinks lock around
// each batch. Each Events call receives the emitting run's full
// location table so batches from different runs stay self-describing —
// a Loc index is only meaningful against the table it arrived with.
type Sink interface {
	Begin() error
	Events(locs []string, events []Event) error
	Close() error
}

// JSONLSink writes one JSON object per line: a header line
// {"v":1} on Begin, then one self-contained object per event with the
// location spelled as a name. The encoding is canonical — fixed key
// order, strconv-formatted numbers — so DecodeJSONL∘EncodeJSONL is a
// fixed point and golden tests can pin the schema byte-for-byte.
//
// A JSONLSink may be shared by concurrent runs; lines from different
// runs interleave but each line stays intact and self-contained.
// Close flushes buffered lines but does not close the underlying
// writer, so several runs can take turns on one file.
type JSONLSink struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Begin writes the version header line. When the sink is shared, only
// the first run's Begin writes it.
func (s *JSONLSink) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("obs: JSONLSink used before NewJSONLSink")
	}
	_, err := fmt.Fprintf(s.w, "{\"v\":%d}\n", jsonlVersion)
	return err
}

// Events writes one line per event and flushes, so a follower reading
// the stream sees each batch as soon as the ring drains.
func (s *JSONLSink) Events(locs []string, events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	for i := range events {
		buf = appendEventJSON(buf[:0], locs, &events[i])
		if _, err := s.w.Write(buf); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// Close flushes. The caller owns the underlying writer.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// appendEventJSON appends the canonical JSONL encoding of ev, newline
// included. Packet events carry identity fields; value events stop at
// "val". Location names pass through strconv.Quote, everything else is
// formatted directly, so the output is valid JSON for any loc name.
func appendEventJSON(b []byte, locs []string, ev *Event) []byte {
	b = append(b, `{"t_ns":`...)
	b = strconv.AppendInt(b, int64(ev.T), 10)
	b = append(b, `,"type":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, `","loc":`...)
	b = strconv.AppendQuote(b, locName(locs, ev.Loc))
	b = append(b, `,"conn":`...)
	b = strconv.AppendInt(b, int64(ev.Conn), 10)
	b = append(b, `,"val":`...)
	b = strconv.AppendFloat(b, ev.Val, 'g', -1, 64)
	if ev.Type.PacketEvent() {
		b = append(b, `,"kind":"`...)
		b = append(b, ev.Kind.String()...)
		b = append(b, `","seq":`...)
		b = strconv.AppendInt(b, int64(ev.Seq), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(ev.Size), 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, ev.ID, 10)
	}
	b = append(b, '}', '\n')
	return b
}

func locName(locs []string, l Loc) string {
	if int(l) < len(locs) {
		return locs[int(l)]
	}
	return "?"
}

// EncodeJSONL writes the stream (header plus events) produced by a
// single run. It is the pure-function twin of JSONLSink, used by the
// golden fixed-point tests.
func EncodeJSONL(w io.Writer, locs []string, events []Event) error {
	s := NewJSONLSink(w)
	if err := s.Begin(); err != nil {
		return err
	}
	if err := s.Events(locs, events); err != nil {
		return err
	}
	return s.Close()
}

// DecodeJSONL parses a JSONL stream back into a location table and
// events. It rejects streams whose header declares a version newer
// than this build understands.
func DecodeJSONL(r io.Reader) (locs []string, events []Event, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("obs: empty JSONL stream (missing header)")
	}
	var hdr struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.V == 0 {
		return nil, nil, fmt.Errorf("obs: bad JSONL header %q", sc.Text())
	}
	if hdr.V > jsonlVersion {
		return nil, nil, fmt.Errorf("obs: JSONL stream version %d is newer than supported version %d", hdr.V, jsonlVersion)
	}
	index := map[string]Loc{}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec jsonlEvent
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("obs: bad JSONL event %q: %w", sc.Text(), err)
		}
		ev, locName, err := rec.event()
		if err != nil {
			return nil, nil, fmt.Errorf("obs: bad JSONL event %q: %w", sc.Text(), err)
		}
		loc, ok := index[locName]
		if !ok {
			loc = Loc(len(locs))
			index[locName] = loc
			locs = append(locs, locName)
		}
		ev.Loc = loc
		events = append(events, ev)
	}
	return locs, events, sc.Err()
}

// jsonlEvent mirrors one event line for decoding.
type jsonlEvent struct {
	T    int64   `json:"t_ns"`
	Type string  `json:"type"`
	Loc  string  `json:"loc"`
	Conn int32   `json:"conn"`
	Val  float64 `json:"val"`
	Kind string  `json:"kind"`
	Seq  int32   `json:"seq"`
	Size int32   `json:"size"`
	ID   uint64  `json:"id"`
}

func (r *jsonlEvent) event() (Event, string, error) {
	typ, err := ParseType(r.Type)
	if err != nil {
		return Event{}, "", err
	}
	ev := Event{
		T: time.Duration(r.T), Val: r.Val,
		Conn: r.Conn, Type: typ,
	}
	if typ.PacketEvent() {
		ev.Seq, ev.Size, ev.ID = r.Seq, r.Size, r.ID
		switch r.Kind {
		case "DATA":
			ev.Kind = packet.Data
		case "ACK":
			ev.Kind = packet.Ack
		default:
			return Event{}, "", fmt.Errorf("unknown packet kind %q", r.Kind)
		}
	}
	return ev, r.Loc, nil
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
