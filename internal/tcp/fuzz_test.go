package tcp

import (
	"testing"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/sim"
)

// sendLog is the fuzzed sender's Network: it records every segment and
// holds each first transmission of a sequence number to the window the
// sender had when it sent it.
type sendLog struct {
	t     *testing.T
	s     *Sender
	eng   *sim.Engine
	high  int                   // one past the highest sequence number sent
	times map[int]int           // how often each sequence number was sent
	first map[int]time.Duration // when each was first sent
}

func (l *sendLog) Send(p *packet.Packet) bool {
	if l.times[p.Seq]++; l.times[p.Seq] == 1 {
		l.first[p.Seq] = l.eng.Now()
	}
	if p.Seq >= l.high {
		// A segment never sent before must fit in the window: below the
		// lowest unacknowledged one plus the usable window.
		if limit := l.s.Una() + l.s.Wnd(); p.Seq >= limit {
			l.t.Fatalf("new segment %d sent with una %d and window %d", p.Seq, l.s.Una(), l.s.Wnd())
		}
		l.high = p.Seq + 1
	}
	return true
}

// FuzzSenderAcks drives one Tahoe (or Reno) sender with sequences of
// ACKs, duplicate ACKs, clock advances and timeouts decoded from bytes,
// and after every step holds it to the rules of the algorithm in
// PAPER.md §2, not to its code:
//   - the congestion window never falls below one packet: slow-start
//     starts from one, and a collapse goes back to one;
//   - once a loss has been detected, ssthresh is at least two packets:
//     half the window, but never below two;
//   - the cumulative acknowledgment point snd_una never moves back,
//     whatever stale or duplicate ACK arrives;
//   - a sequence number sent for the first time lies below snd_una plus
//     the usable window, floor(min(cwnd, maxwnd));
//   - Karn's rule: a round-trip sample is timed from a segment sent
//     exactly once, one that the ACK taking the sample newly covers —
//     an ACK covering only retransmitted segments yields no sample;
//   - the retransmission timer backs off: with no ACK of new data
//     between them, each timeout follows the one before by no less than
//     that one followed its predecessor, until the timeout reaches its
//     64 s clamp (a fast retransmit in between may have stretched the
//     gap before it past 64 s).
//
// Input: byte 0 picks Reno and the original increase rule, byte 1 the
// receiver window (1 to 40); then two bytes a step. The first names the
// step and how far the clock moves before it; the second is the step's
// argument.
func FuzzSenderAcks(f *testing.F) {
	f.Add([]byte{0, 40, 0, 1, 0, 2, 0, 3, 0, 4})                                  // a steady ACK stream
	f.Add([]byte{0, 40, 0, 1, 0, 2, 4, 0, 1, 0, 1, 0, 1, 0, 0, 9})                // three duplicates, then recovery
	f.Add([]byte{1, 40, 0, 1, 0, 2, 4, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 9})          // the same under Reno
	f.Add([]byte{2, 1, 2, 0, 2, 0, 2, 0, 0, 1})                                   // window 1, three timeouts in a row
	f.Add([]byte{0, 8, 0, 1, 3, 200, 0, 0, 2, 0, 0, 255, 1, 0, 1, 0, 1, 0, 2, 0}) // stale ACKs between losses
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		eng := sim.New()
		cfg := SenderConfig{
			Conn: 1, SrcHost: 1, DstHost: 2, DataSize: 500,
			Reno:             data[0]&1 != 0,
			OriginalIncrease: data[0]&2 != 0,
			MaxWnd:           1 + int(data[1])%40,
		}
		net := &sendLog{t: t, eng: eng, times: map[int]int{}, first: map[int]time.Duration{}}
		s := NewSender(eng, net, &IDGen{}, cfg)
		net.s = s
		una, acking := 0, 0 // snd_una before this step, and the ACK arriving
		s.OnRTTSample = func(m time.Duration) {
			for seq := una; seq < acking; seq++ {
				if net.times[seq] == 1 && eng.Now()-net.first[seq] == m {
					return
				}
			}
			t.Fatalf("ACK %d (snd_una %d) took a %v sample timed from no segment it covers that was sent once", acking, una, m)
		}
		collapsed := false
		// The last timeout and the gap before it, since the last ACK of
		// new data; lastTimeout -1: none yet.
		lastTimeout, lastGap := time.Duration(-1), time.Duration(0)
		s.OnCollapse = func(cause string) {
			collapsed = true
			if cause != "timeout" {
				return
			}
			now := eng.Now()
			if lastTimeout >= 0 {
				gap := now - lastTimeout
				if gap < min(lastGap, 64*time.Second) {
					t.Fatalf("timeout at %v came %v after the last one, which came %v after its predecessor", now, gap, lastGap)
				}
				lastGap = gap
			}
			lastTimeout = now
		}
		s.Start()

		una = s.Una()
		check := func(step int) {
			t.Helper()
			if s.Cwnd() < 1 {
				t.Fatalf("step %d: cwnd %g below one packet", step, s.Cwnd())
			}
			if collapsed && s.Ssthresh() < 2 {
				t.Fatalf("step %d: ssthresh %g below two packets after a loss", step, s.Ssthresh())
			}
			if s.Una() < una {
				t.Fatalf("step %d: snd_una went back from %d to %d", step, una, s.Una())
			}
			if s.Una() > una {
				lastTimeout, lastGap = -1, 0 // new data acknowledged: the backoff restarts
			}
			una = s.Una()
		}
		ack := func(seq int) {
			acking = seq
			s.Handle(&packet.Packet{Kind: packet.Ack, Conn: 1, Src: 2, Dst: 1, Seq: seq, Size: 40})
		}
		check(0)
		for step, in := 1, data[2:]; len(in) >= 2; step, in = step+1, in[2:] {
			op, arg := in[0], int(in[1])
			// The clock moves first, up to 63 × 10 ms; a timer that falls
			// due on the way fires.
			eng.RunUntil(eng.Now() + time.Duration(op>>2)*10*time.Millisecond)
			switch op & 3 {
			case 0: // any ACK the receiver could have sent: 0 to the highest sent
				ack(arg % (net.high + 1))
			case 1: // a duplicate
				ack(s.Una())
			case 2: // the retransmission timer expires
				eng.Step()
			case 3: // nothing arrives
			}
			check(step)
		}
	})
}

// ackLog is the fuzzed receiver's Network: it holds every ACK to the
// cumulative point the arrivals so far define, and counts them.
type ackLog struct {
	t       *testing.T
	eng     *sim.Engine
	arrived map[int]bool // every sequence number delivered so far
	acks    int          // ACKs sent
}

// next is the cumulative point of the arrivals: the lowest sequence
// number not yet delivered.
func (l *ackLog) next() int {
	n := 0
	for l.arrived[n] {
		n++
	}
	return n
}

func (l *ackLog) Send(p *packet.Packet) bool {
	if p.Kind != packet.Ack {
		l.t.Fatalf("receiver sent %v", p)
	}
	if want := l.next(); p.Seq != want {
		l.t.Fatalf("ACK %d at %v: the segments delivered are in order up to %d", p.Seq, l.eng.Now(), want)
	}
	l.acks++
	return true
}

// FuzzReceiver delivers data segments to one receiver in any order, with
// duplicates and clock advances decoded from bytes, and after every step
// holds it to the rules of PAPER.md §2 (cumulative ACKs, the delayed-ACK
// option), not to its code:
//   - every ACK carries the cumulative point: one past the highest
//     sequence number below which every segment has arrived — so it
//     never acknowledges a segment that did not arrive, and never moves
//     back;
//   - a segment that arrives out of order is kept: when the gap below it
//     fills, the next ACK covers it without its being sent again;
//   - without the delayed-ACK option every arriving segment is
//     acknowledged at once;
//   - with it, at most one arrival waits for its ACK (the second is
//     acknowledged at once), and none waits past the 200 ms fast timer.
//
// Input: byte 0 turns the delayed-ACK option on; then two bytes a step.
// The first is how far the clock moves before the step, in 5 ms units (a
// timer that falls due on the way fires), its low bit whether a segment
// arrives at all; the second is the segment's sequence number, below 48.
func FuzzReceiver(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 1, 3})                            // in order, no delay
	f.Add([]byte{1, 1, 0, 1, 1, 1, 2, 81, 3, 0, 0, 200, 0})             // delayed ACKs, one flushed by the timer
	f.Add([]byte{0, 1, 2, 1, 1, 1, 3, 1, 0, 1, 5, 1, 4})                // a hole, filled
	f.Add([]byte{1, 1, 0, 1, 0, 1, 4, 41, 1, 1, 2, 1, 3, 201, 5, 0, 0}) // duplicates and a reordered burst
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		eng := sim.New()
		delayed := data[0]&1 != 0
		net := &ackLog{t: t, eng: eng, arrived: map[int]bool{}}
		r := NewReceiver(eng, net, &IDGen{}, ReceiverConfig{Conn: 1, SrcHost: 2, DstHost: 1, AckSize: 40, DelayedAck: delayed})
		// waiting is the number of arrivals since the last ACK and since
		// when the first of them has waited.
		waiting, since := 0, time.Duration(0)
		for step, in := 1, data[1:]; len(in) >= 2; step, in = step+1, in[2:] {
			op, seq := in[0], int(in[1])%48
			acks := net.acks
			eng.RunUntil(eng.Now() + time.Duration(op>>1)*5*time.Millisecond)
			if net.acks > acks {
				waiting = 0
			}
			if waiting > 0 && eng.Now()-since >= FastTick {
				t.Fatalf("step %d: an arrival at %v is still unacknowledged at %v", step, since, eng.Now())
			}
			if op&1 == 0 {
				continue
			}
			net.arrived[seq] = true
			acks = net.acks
			r.Handle(&packet.Packet{Kind: packet.Data, Conn: 1, Src: 1, Dst: 2, Seq: seq, Size: 500})
			switch {
			case net.acks > acks+1:
				t.Fatalf("step %d: one arrival sent %d ACKs", step, net.acks-acks)
			case net.acks > acks:
				waiting = 0
			case !delayed:
				t.Fatalf("step %d: segment %d arrived without the delayed-ACK option and was not acknowledged", step, seq)
			case waiting > 0:
				t.Fatalf("step %d: segment %d is the second arrival waiting for an ACK", step, seq)
			default:
				waiting, since = 1, eng.Now()
			}
			if got, want := r.RcvNxt(), net.next(); got != want {
				t.Fatalf("step %d: receiver expects %d next, the segments delivered are in order up to %d", step, got, want)
			}
		}
	})
}

// lossyLink carries one direction of a connection. Before lossUntil
// each packet's fate is the next fuzz byte: an odd byte drops it, an
// even one delivers it after the base delay plus byte/2 × 10 ms, so
// packets overtake one another. From lossUntil on every packet arrives
// after the base delay, in the order sent.
type lossyLink struct {
	eng       *sim.Engine
	to        func(*packet.Packet)
	delay     time.Duration
	lossUntil time.Duration
	fate      []byte
	next      *int // the fuzz byte for the next packet, shared by both directions
}

func (l *lossyLink) Send(p *packet.Packet) bool {
	d := l.delay
	if l.eng.Now() < l.lossUntil && len(l.fate) > 0 {
		b := l.fate[*l.next%len(l.fate)]
		*l.next++
		if b&1 != 0 {
			return true
		}
		d += time.Duration(b>>1) * 10 * time.Millisecond
	}
	l.eng.Schedule(d, func() { l.to(p) })
	return true
}

// FuzzDeliveryAfterLoss runs a Tahoe sender and a receiver over a link
// that drops and reorders packets, in both directions, as the fuzz bytes
// say until a time T, and is lossless after. It holds the pair to the
// recovery PAPER.md §2 promises — coarse-grained retransmission timer
// with exponential backoff, go-back-N after a timeout, cumulative ACKs:
//   - by T + B the receiver's cumulative point covers every sequence
//     number the sender had sent by T;
//   - once any timeout the losses called for has been taken, the point
//     keeps advancing: it moves in every round trip.
//
// The bounds, with D the one-way delay and R = 2D + 200 ms a round trip
// after T (the receiver holds a delayed ACK at most one fast tick):
//   - a packet sent before T arrives by T + E, E = 1.27 s the longest
//     extra delay, and what it sets off is back at the sender R later;
//   - then the retransmission timer, armed whenever data is outstanding,
//     fires within its 64 s clamp plus one 500 ms slow tick of the grid,
//     and the segment it resends is answered a round trip later: by
//     T + E + 2R + 64.5 s;
//   - the timeout rewinds to snd_una and resends from there, so from
//     then on every segment above snd_una was sent after T and arrives;
//     snd_una moves at least one segment a round trip while the window
//     recovers from one packet — the second property — and at most
//     maxwnd segments were outstanding at T.
//
// So B = E + R + 64.5 s + maxwnd × R.
//
// Input: byte 0 turns the delayed-ACK option on (bit 0) and picks the
// original increase rule (bit 1); byte 1 is maxwnd (1 to 40), byte 2 the
// one-way delay (10 to 100 ms), byte 3 T (100 ms to 10 s). The rest are
// the fates of the packets sent before T, in turn, cycled when they run
// out; with none, nothing is lost.
func FuzzDeliveryAfterLoss(f *testing.F) {
	f.Add([]byte{0, 39, 20, 50})                                    // lossless, maxwnd 40
	f.Add([]byte{0, 39, 20, 50, 0, 0, 0, 1, 0, 0, 0, 0})            // every eighth packet lost, ACKs too
	f.Add([]byte{1, 20, 50, 99, 0, 1, 40, 1, 2, 1, 126, 0, 3})      // delayed ACKs, heavy loss and reordering
	f.Add([]byte{2, 8, 10, 30, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0}) // near-total loss: timeouts back off
	f.Add([]byte{0, 0, 90, 80, 254, 1, 0})                          // maxwnd 1, long holds
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		const maxExtra = 127 * 10 * time.Millisecond
		maxWnd := 1 + int(data[1])%40
		delay := time.Duration(10+int(data[2])%91) * time.Millisecond
		lossUntil := time.Duration(1+int(data[3])%100) * 100 * time.Millisecond
		rtt := 2*delay + FastTick
		rto := rtoMaxTicks*SlowTick + SlowTick // the clamp, and the grid's slack
		bound := maxExtra + rtt + rto + time.Duration(maxWnd)*rtt

		eng := sim.New()
		var next int
		toRcv := &lossyLink{eng: eng, delay: delay, lossUntil: lossUntil, fate: data[4:], next: &next}
		toSnd := &lossyLink{eng: eng, delay: delay, lossUntil: lossUntil, fate: data[4:], next: &next}
		s := NewSender(eng, toRcv, &IDGen{}, SenderConfig{
			Conn: 1, SrcHost: 1, DstHost: 2, DataSize: 500, MaxWnd: maxWnd,
			OriginalIncrease: data[0]&2 != 0,
		})
		r := NewReceiver(eng, toSnd, &IDGen{}, ReceiverConfig{
			Conn: 1, SrcHost: 2, DstHost: 1, AckSize: 40, DelayedAck: data[0]&1 != 0,
		})
		high := 0 // one past the highest sequence number sent before T
		s.OnSend = func(p *packet.Packet) {
			if eng.Now() < lossUntil {
				high = max(high, p.Seq+1)
			}
		}
		toRcv.to, toSnd.to = r.Handle, s.Handle
		s.Start()

		eng.RunUntil(lossUntil)
		for r.RcvNxt() < high {
			if eng.Now() > lossUntil+bound || !eng.Step() {
				t.Fatalf("T %v, one-way delay %v, maxwnd %d: at %v the receiver expects %d, short of the %d segments sent by T (bound T + %v)",
					lossUntil, delay, maxWnd, eng.Now(), r.RcvNxt(), high, bound)
			}
		}
		eng.RunUntil(max(eng.Now(), lossUntil+maxExtra+2*rtt+rto))
		for round := 0; round < 25; round++ {
			from := r.RcvNxt()
			eng.RunUntil(eng.Now() + rtt)
			if r.RcvNxt() == from {
				t.Fatalf("T %v, one-way delay %v, maxwnd %d: the receiver expects %d at %v and still at %v, a round trip later",
					lossUntil, delay, maxWnd, from, eng.Now()-rtt, eng.Now())
			}
		}
	})
}
