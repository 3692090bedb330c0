package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"tahoedyn/internal/link"
	"tahoedyn/internal/node"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
	"tahoedyn/internal/tcp"
	"tahoedyn/internal/tstore"
)

// The isolated drivers time calls into one layer's public API with the
// layers around it replaced by null sinks. Each runs a fixed number of
// operations, isoSamples times, and reports the median ns per
// operation. Ports and hosts need a real *sim.Engine, so their figures
// include the engine events they schedule (two per port hop, one per
// host delivery); the budget in measure.go allows for that.

const isoSamples = 5

// isoOps is the operation count of one driver sample. The smoke run
// lowers it.
var isoOps = 1_000_000

// nullSink ends a packet's life: it is the stub for "the rest of the
// network" — a link.Receiver, a tcp.Network and a node.Handler at once.
type nullSink struct {
	pool *packet.Pool
	n    int
}

func (s *nullSink) Deliver(p *packet.Packet)   { s.n++; s.pool.Put(p) }
func (s *nullSink) Handle(p *packet.Packet)    { s.n++; s.pool.Put(p) }
func (s *nullSink) Send(p *packet.Packet) bool { s.n++; s.pool.Put(p); return true }

// perOp runs sample isoSamples times and returns the median of
// elapsed/ops in ns. sample returns the number of operations it did.
func perOp(sample func() (ops int, elapsed time.Duration)) float64 {
	vals := make([]float64, isoSamples)
	for i := range vals {
		runtime.GC()
		ops, d := sample()
		vals[i] = float64(d.Nanoseconds()) / float64(ops)
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// lcg is a tiny deterministic generator for driver delays: cheap enough
// not to show in a 20 ns operation.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 33)
}

// engineScheduleFire measures one Schedule + fire with `pending` events
// outstanding. 16 short-delay actors (0.1–80 ms, the paper's
// transmission and propagation times) churn through the scheduler; the
// rest of the pending population are retransmission-timer-like actors
// rescheduling themselves 0.5–1.5 s out, so depth stays constant.
func engineScheduleFire(kind sim.SchedKind, pending int) float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.NewSched(kind)
		g := lcg(1)
		for i := 0; i < pending; i++ {
			lo, span := 100*time.Microsecond, 80*time.Millisecond
			if i >= 16 {
				lo, span = 500*time.Millisecond, time.Second
			}
			var fn func()
			fn = func() { eng.Schedule(lo+time.Duration(g.next())%span, fn) }
			eng.Schedule(lo+time.Duration(g.next())%span, fn)
		}
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			eng.Step()
		}
		return isoOps, time.Since(t0)
	})
}

// engineTimerRearm measures sim.Timer.Reset on an armed timer — the
// per-ACK retransmission-timer pattern — over 1024 timers with
// deadlines 1–1.064 s out.
func engineTimerRearm(kind sim.SchedKind) float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.NewSched(kind)
		timers := make([]*sim.Timer, 1024)
		for i := range timers {
			timers[i] = sim.NewTimer(eng, func() {})
			timers[i].Reset(time.Second)
		}
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			timers[i&1023].Reset(time.Second + time.Duration(i&63)*time.Millisecond)
		}
		return isoOps, time.Since(t0)
	})
}

// engineCancel measures Schedule + Cancel of an event that never fires.
func engineCancel(kind sim.SchedKind) float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.NewSched(kind)
		fn := func() {}
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			eng.Schedule(time.Second, fn).Cancel()
		}
		return isoOps, time.Since(t0)
	})
}

func poolGetPut() float64 {
	return perOp(func() (int, time.Duration) {
		pool := packet.NewPool()
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			pool.Put(pool.Get())
		}
		return isoOps, time.Since(t0)
	})
}

// loopback re-offers every packet it receives to a port, so a few
// packets circulate Send → serialize → propagate → Deliver for as long
// as the engine runs.
type loopback struct {
	port *link.Port
	n    int
}

func (l *loopback) Deliver(p *packet.Packet) { l.n++; l.port.Send(p) }

// portHop measures one packet-hop through a port: Send, the
// serialization event, the propagation event, delivery to a null
// destination. Eight 500-byte packets circulate on a 50 kbit/s, 10 ms
// line — the paper's trunk. disc and beh select the discipline and the
// line behaviour; nil is drop-tail on an ideal line.
func portHop(disc func() link.Disc, beh func() link.Behavior) float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.New()
		pool := packet.NewPool()
		lb := &loopback{}
		cfg := link.Config{Name: "a->b", Bandwidth: 50_000, Delay: 10 * time.Millisecond, Buffer: 20, Pool: pool}
		if disc != nil {
			cfg.Disc = disc()
		}
		if beh != nil {
			cfg.Behavior = beh()
		}
		lb.port = link.NewPort(eng, cfg, lb)
		inject := func(i int) {
			p := pool.Get()
			p.ID, p.Conn, p.Seq, p.Size, p.Kind = uint64(i+1), 1, i, 500, packet.Data
			lb.port.Send(p)
		}
		for i := 0; i < 8; i++ {
			inject(i)
		}
		// RED's early drops and the behaviour's line losses end packets;
		// replace each so eight stay in flight.
		gone := uint64(0)
		t0 := time.Now()
		for lb.n < isoOps && eng.Step() {
			if st := lb.port.Stats(); st.Dropped+st.Lost > gone {
				gone++
				inject(int(gone) + 8)
			}
		}
		return lb.n, time.Since(t0)
	})
}

// portDrop measures an arrival at a full drop-tail buffer: Admit
// refuses, the port counts the drop and releases the packet.
func portDrop() float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.New()
		pool := packet.NewPool()
		port := link.NewPort(eng, link.Config{Name: "a->b", Bandwidth: 50_000, Delay: time.Millisecond, Buffer: 4, Pool: pool},
			&nullSink{pool: pool})
		for i := 0; i < 4; i++ {
			p := pool.Get()
			p.Size = 500
			port.Send(p)
		}
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			p := pool.Get()
			p.Size = 500
			port.Send(p)
		}
		return isoOps, time.Since(t0)
	})
}

// switchForward measures the forwarding lookup for `hosts` destinations
// spread over `runs` equal-port intervals. 64 hosts stay on the dense
// table; more migrate the switch to interval runs.
func switchForward(hosts, runs int) float64 {
	eng := sim.New()
	pool := packet.NewPool()
	sink := &nullSink{pool: pool}
	ports := make([]*link.Port, 8)
	for i := range ports {
		ports[i] = link.NewPort(eng, link.Config{Name: "p", Bandwidth: 50_000, Buffer: 20, Pool: pool}, sink)
	}
	sw := node.NewSwitch(0)
	per := hosts / runs
	for r := 0; r < runs; r++ {
		sw.AddRouteRange(r*per, (r+1)*per, ports[r%len(ports)])
	}
	var keep *link.Port
	v := perOp(func() (int, time.Duration) {
		g := lcg(7)
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			keep = sw.Route(int(g.next()) % hosts)
		}
		return isoOps, time.Since(t0)
	})
	runtime.KeepAlive(keep)
	return v
}

// hostDeliver measures a packet's arrival at a host: the processing-
// delay event and the dispatch to the connection's endpoint.
func hostDeliver() float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.New()
		pool := packet.NewPool()
		sink := &nullSink{pool: pool}
		h := node.NewHost(eng, 1, 100*time.Microsecond)
		h.Attach(1, sink)
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			p := pool.Get()
			p.Conn, p.Dst = 1, 1
			h.Deliver(p)
			eng.Step()
		}
		return isoOps, time.Since(t0)
	})
}

// senderAck measures tcp.Sender.Handle on a fresh cumulative ACK, with
// the network a null sink: window arithmetic, RTT sampling, the timer
// rearm, and the segments the opened window releases (one per ACK once
// the window has reached maxwnd).
func senderAck() float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.New()
		pool := packet.NewPool()
		s := tcp.NewSender(eng, &nullSink{pool: pool}, &tcp.IDGen{},
			tcp.SenderConfig{Conn: 1, SrcHost: 1, DstHost: 2, MaxWnd: 50, DataSize: 500, Pool: pool})
		s.Start()
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			p := pool.Get()
			p.Kind, p.Conn, p.Seq, p.Size = packet.Ack, 1, s.Una()+1, 50
			s.Handle(p)
		}
		return isoOps, time.Since(t0)
	})
}

// receiverData measures tcp.Receiver.Handle on an in-order segment: the
// sequence advance and the ACK it sends into a null network.
func receiverData() float64 {
	return perOp(func() (int, time.Duration) {
		eng := sim.New()
		pool := packet.NewPool()
		r := tcp.NewReceiver(eng, &nullSink{pool: pool}, &tcp.IDGen{},
			tcp.ReceiverConfig{Conn: 1, SrcHost: 2, DstHost: 1, AckSize: 50, Pool: pool})
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			p := pool.Get()
			p.Kind, p.Conn, p.Seq, p.Size = packet.Data, 1, r.RcvNxt(), 500
			r.Handle(p)
		}
		return isoOps, time.Since(t0)
	})
}

// discardSink is an obs.Sink that drops every batch.
type discardSink struct{}

func (discardSink) Begin() error                       { return nil }
func (discardSink) Events([]string, []obs.Event) error { return nil }
func (discardSink) Close() error                       { return nil }

// obsEmit measures one Tracer.Packet call: on a nil tracer (the cost
// every untraced port event site pays beyond its own nil compare) and
// on a live tracer flushing into a null sink.
func obsEmit(on bool) float64 {
	var tr *obs.Tracer
	if on {
		tr = obs.NewTracer(obs.TraceOptions{Sink: discardSink{}})
	}
	loc := tr.Loc("a->b")
	p := &packet.Packet{ID: 1, Conn: 1, Seq: 1, Size: 500}
	return perOp(func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < isoOps; i++ {
			tr.Packet(obs.Enqueue, time.Duration(i), loc, p, 3)
		}
		return isoOps, time.Since(t0)
	})
}

// storeBatch is a deterministic batch of events shaped like port
// traffic: mixed types, a few locations and connections, ascending
// times.
func storeBatch(n int, start time.Duration) ([]string, []obs.Event) {
	locs := []string{"sw0->sw1", "sw1->sw0", "sw1->sw2", "host1"}
	events := make([]obs.Event, n)
	t := start
	for i := range events {
		t += time.Duration(50+i%17) * time.Microsecond
		events[i] = obs.Event{
			T: t, Type: obs.Type(i % 4), Loc: obs.Loc(i % len(locs)), Conn: int32(1 + i%3),
			Kind: packet.Data, ID: uint64(i), Seq: int32(i / 3), Size: 500, Val: float64(i % 20),
		}
	}
	return locs, events
}

// tstoreDrivers measures the store's ingest (ns and bytes per event)
// and a full scan of what was written.
func tstoreDrivers(m map[string]float64) {
	const batch = 4096
	locs, events := storeBatch(batch, 0)
	var buf bytes.Buffer
	var written int
	m["tstore.append_ns_per_event"] = perOp(func() (int, time.Duration) {
		buf.Reset()
		w := tstore.NewWriter(&buf, tstore.WriterOptions{})
		t0 := time.Now()
		w.Begin() // errors surface at Close
		for n := 0; n < isoOps; n += batch {
			w.Events(locs, events)
		}
		if err := w.Close(); err != nil {
			panic(err) // a bytes.Buffer never fails
		}
		written = int(w.TotalEvents())
		return written, time.Since(t0)
	})
	m["tstore.bytes_per_event"] = float64(buf.Len()) / float64(written)
	st, err := tstore.NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		panic(err) // the store was just written
	}
	nsPerEvent := perOp(func() (int, time.Duration) {
		n := 0
		t0 := time.Now()
		if err := st.Scan(tstore.Query{}, func(*obs.Event) error { n++; return nil }); err != nil {
			panic(err)
		}
		return n, time.Since(t0)
	})
	m["tstore.scan_events_per_s"] = 1e9 / nsPerEvent
}

// tcpBytesPerConn is the resident size of one connection's protocol
// state: a Sender and a Receiver wired to a null network.
func tcpBytesPerConn() float64 {
	const n = 10_000
	eng := sim.New()
	pool := packet.NewPool()
	net := &nullSink{pool: pool}
	ids := &tcp.IDGen{}
	base := liveHeap()
	senders := make([]*tcp.Sender, n)
	receivers := make([]*tcp.Receiver, n)
	for k := range senders {
		senders[k] = tcp.NewSender(eng, net, ids, tcp.SenderConfig{Conn: k + 1, SrcHost: 1, DstHost: 2, MaxWnd: 1000, DataSize: 500, Pool: pool})
		receivers[k] = tcp.NewReceiver(eng, net, ids, tcp.ReceiverConfig{Conn: k + 1, SrcHost: 2, DstHost: 1, AckSize: 50, Pool: pool})
	}
	live := liveHeap() - base
	runtime.KeepAlive(senders)
	runtime.KeepAlive(receivers)
	return float64(live) / n
}

// isolated runs every driver and returns the per-layer metrics they
// yield.
func isolated() map[string]float64 {
	m := map[string]float64{}
	for _, k := range []sim.SchedKind{sim.SchedWheel, sim.SchedHeap} {
		pre := "sim." + k.String() + "."
		m[pre+"schedule_fire_ns.shallow"] = engineScheduleFire(k, 16)
		m[pre+"schedule_fire_ns.deep"] = engineScheduleFire(k, 100_000)
		m[pre+"timer_rearm_ns"] = engineTimerRearm(k)
		m[pre+"cancel_ns"] = engineCancel(k)
	}
	m["packet.pool_getput_ns"] = poolGetPut()
	red := &link.QueueSpec{Policy: "red", MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.01}
	beh := &link.BehaviorSpec{Loss: 0.001, Jitter: 2 * time.Millisecond}
	m["link.port_hop_ns.droptail"] = portHop(nil, nil)
	m["link.port_hop_ns.red"] = portHop(func() link.Disc {
		d, err := red.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			panic(err) // a constant, valid spec
		}
		return d
	}, nil)
	m["link.port_hop_ns.behavior"] = portHop(nil, func() link.Behavior {
		b, err := beh.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			panic(err)
		}
		return b
	})
	m["link.port_drop_ns"] = portDrop()
	m["node.switch_forward_ns.dense"] = switchForward(64, 8)
	m["node.switch_forward_ns.runs"] = switchForward(4096, 64)
	m["node.host_deliver_ns"] = hostDeliver()
	m["tcp.sender_ack_ns"] = senderAck()
	m["tcp.receiver_data_ns"] = receiverData()
	m["tcp.bytes_per_conn"] = tcpBytesPerConn()
	m["obs.emit_off_ns"] = obsEmit(false)
	m["obs.emit_on_ns"] = obsEmit(true)
	tstoreDrivers(m)
	return m
}
