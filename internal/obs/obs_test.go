package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/packet"
)

func TestTypeNamesRoundTrip(t *testing.T) {
	for typ := Type(0); typ < numTypes; typ++ {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Fatalf("ParseType(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Fatal("ParseType accepted an unknown name")
	}
	if !Drop.PacketEvent() || !Deliver.PacketEvent() {
		t.Fatal("Drop/Deliver should be packet events")
	}
	if Timeout.PacketEvent() || CwndChange.PacketEvent() {
		t.Fatal("Timeout/CwndChange should be value events")
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("conn=2,type=drop|timeout")
	if err != nil {
		t.Fatal(err)
	}
	if f.Conn != 2 || f.Types != 1<<Drop|1<<Timeout {
		t.Fatalf("filter = %+v", f)
	}
	if !f.Match(Drop, 2) || f.Match(Drop, 1) || f.Match(Enqueue, 2) {
		t.Fatal("Match disagrees with the parsed filter")
	}
	if zero, err := ParseFilter(""); err != nil || zero != (Filter{}) {
		t.Fatalf("empty filter = %+v, %v", zero, err)
	}
	if !(Filter{}).Match(Enqueue, 7) {
		t.Fatal("zero filter must match everything")
	}
	for _, bad := range []string{"conn=0", "conn=x", "type=bogus", "weird=1", "justakey"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) did not error", bad)
		}
	}
}

// TestTracerRingAndLifecycle pins the ring semantics: batches leave for
// the sink only when the ring fills or on Flush/Close, Begin happens
// once lazily, and the location table arrives with every batch. A full
// ring is handed off, not delivered on the spot: what the sink holds is
// defined at the join points (Err, which does not flush; Flush; Close).
func TestTracerRingAndLifecycle(t *testing.T) {
	sink := NewMemorySink()
	tr := NewTracer(TraceOptions{Sink: sink, RingSize: 4})
	loc := tr.Loc("portA")
	if again := tr.Loc("portA"); again != loc {
		t.Fatalf("re-interning the same name gave %d, then %d", loc, again)
	}
	p := &packet.Packet{ID: 1, Conn: 1, Seq: 1, Size: 500, Kind: packet.Data}
	for i := 0; i < 3; i++ {
		tr.Packet(Enqueue, time.Duration(i)*time.Second, loc, p, float64(i))
	}
	if begun, _ := sink.Lifecycle(); begun != 0 || sink.Len() != 0 {
		t.Fatalf("sink touched before the ring filled: begun=%d len=%d", begun, sink.Len())
	}
	tr.Value(CwndChange, 3*time.Second, tr.Loc("conn1"), 1, 2) // fills the ring
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if begun, _ := sink.Lifecycle(); begun != 1 || sink.Len() != 4 {
		t.Fatalf("after ring fill and join: begun=%d len=%d, want 1, 4", begun, sink.Len())
	}
	tr.Packet(Deliver, 4*time.Second, loc, p, 0)
	if err := tr.Err(); err != nil || sink.Len() != 4 {
		t.Fatalf("a join flushed the partial ring: len=%d err=%v", sink.Len(), err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	begun, closed := sink.Lifecycle()
	if begun != 1 || closed != 1 || sink.Len() != 5 {
		t.Fatalf("after Close: begun=%d closed=%d len=%d", begun, closed, sink.Len())
	}
	locs, events := sink.Snapshot()
	if len(locs) != 2 || locs[0] != "portA" || locs[1] != "conn1" {
		t.Fatalf("locs = %v", locs)
	}
	if events[3].Type != CwndChange || events[3].Loc != 1 {
		t.Fatalf("event 3 = %+v", events[3])
	}
}

// The location id space is 16 bits: the tracer hands out 65 536
// distinct ids, and the name after that fails the tracer (nothing more
// is recorded, Err names the limit) instead of sharing id 0 with the
// first.
func TestTracerLocLimit(t *testing.T) {
	sink := NewMemorySink()
	tr := NewTracer(TraceOptions{Sink: sink})
	for i := 0; i < 1<<16; i++ {
		if got := tr.Loc("port" + strconv.Itoa(i)); int(got) != i {
			t.Fatalf("location %d interned as id %d", i, got)
		}
	}
	if got := tr.Loc("port65535"); got != 65535 || tr.Err() != nil {
		t.Fatalf("re-interning the last name: id %d, err %v", got, tr.Err())
	}
	tr.Loc("one-too-many")
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "65536 locations") {
		t.Fatalf("after the 65 537th location Err() = %v, want the 65536-location limit", err)
	}
	tr.Value(CwndChange, time.Second, 0, 1, 2)
	tr.Close()
	if sink.Len() != 0 {
		t.Fatalf("a failed tracer recorded %d events", sink.Len())
	}
}

func TestTracerFilterDropsEvents(t *testing.T) {
	sink := NewMemorySink()
	tr := NewTracer(TraceOptions{Sink: sink, Filter: Filter{Conn: 2}, RingSize: 2})
	loc := tr.Loc("port")
	p1 := &packet.Packet{ID: 1, Conn: 1, Kind: packet.Data}
	p2 := &packet.Packet{ID: 2, Conn: 2, Kind: packet.Data}
	tr.Packet(Enqueue, time.Second, loc, p1, 0)
	tr.Packet(Enqueue, time.Second, loc, p2, 0)
	tr.Value(CwndChange, time.Second, loc, 1, 3)
	tr.Value(CwndChange, time.Second, loc, 2, 3)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	_, events := sink.Snapshot()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Conn != 2 {
			t.Fatalf("filtered stream leaked conn %d", ev.Conn)
		}
	}
}

// TestNilInstrumentsNoOp pins the disabled path: every method on every
// nil instrument is a safe no-op.
func TestNilInstrumentsNoOp(t *testing.T) {
	var tr *Tracer
	p := &packet.Packet{Conn: 1}
	tr.Packet(Enqueue, 0, tr.Loc("x"), p, 0)
	tr.Value(CwndChange, 0, 0, 1, 0)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	var m *Metrics
	c := m.NewCounter("c")
	g := m.NewGauge("g")
	h := m.NewHistogram("h", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	c.Inc()
	c.Add(2)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.N() != 0 || h.Mean() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if b, n := h.Buckets(); b != nil || n != nil {
		t.Fatal("nil histogram returned buckets")
	}
	if err := m.WriteText(new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{}\n" {
		t.Fatalf("nil registry JSON = %q", buf.String())
	}
}

// TestMetricsRenderGolden pins both renderers byte-for-byte in
// registration order.
func TestMetricsRenderGolden(t *testing.T) {
	m := NewMetrics()
	c := m.NewCounter("events")
	c.Add(41)
	c.Inc()
	g := m.NewGauge("util/fwd")
	g.Set(0.5)
	h := m.NewHistogram("queue", []float64{1, 2, 5})
	for _, v := range []float64{0, 1, 3, 10} {
		h.Observe(v)
	}
	if h.N() != 4 || h.Sum() != 14 || h.Mean() != 3.5 || h.Min() != 0 || h.Max() != 10 {
		t.Fatalf("histogram stats: n=%d sum=%v mean=%v min=%v max=%v",
			h.N(), h.Sum(), h.Mean(), h.Min(), h.Max())
	}
	bounds, counts := h.Buckets()
	if !reflect.DeepEqual(bounds, []float64{1, 2, 5}) || !reflect.DeepEqual(counts, []uint64{2, 0, 1, 1}) {
		t.Fatalf("buckets: bounds=%v counts=%v", bounds, counts)
	}

	var text bytes.Buffer
	if err := m.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	wantText := "counter events                           42\n" +
		"gauge   util/fwd                         0.5\n" +
		"hist    queue                            n=4 mean=3.5 min=0 max=10\n" +
		"          le 1            2\n" +
		"          le 5            1\n" +
		"          le +inf        1\n"
	if text.String() != wantText {
		t.Fatalf("text render changed:\ngot:\n%q\nwant:\n%q", text.String(), wantText)
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"counters":[{"name":"events","value":42}],` +
		`"gauges":[{"name":"util/fwd","value":0.5}],` +
		`"histograms":[{"name":"queue","n":4,"sum":14,"min":0,"max":10,` +
		`"bounds":[1,2,5],"buckets":[2,0,1,1]}]}` + "\n"
	if js.String() != wantJSON {
		t.Fatalf("JSON render changed:\ngot:\n%s\nwant:\n%s", js.String(), wantJSON)
	}
}

func TestProgressFrac(t *testing.T) {
	cases := []struct {
		s    Snapshot
		want float64
	}{
		{Snapshot{Now: 5 * time.Second, End: 10 * time.Second}, 0.5},
		{Snapshot{Now: 0, End: 10 * time.Second}, 0},
		{Snapshot{Now: 15 * time.Second, End: 10 * time.Second}, 1},
		{Snapshot{Now: 5 * time.Second, End: 0}, 0},
		{Snapshot{Now: -time.Second, End: 10 * time.Second}, 0},
	}
	for _, tc := range cases {
		if got := tc.s.Frac(); got != tc.want {
			t.Errorf("Frac(%+v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}
