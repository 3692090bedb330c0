package link

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tahoedyn/internal/packet"
)

// admitRef is RED.Admit as it stood before the zero-average guard, kept
// verbatim as the referee: every idle arrival raises 1-Wq to the idle
// length, also when the average it multiplies is zero.
func (d *RED) admitRef(p *packet.Packet) bool {
	total := d.q.Len() + d.h.InService()
	now := d.h.Now()
	if total == 0 {
		// Arrival to an idle link: decay the average across the idle
		// period, measured in typical packet times.
		if idle := now - d.busyEnd; idle > 0 && d.typTx > 0 {
			m := float64(idle) / float64(d.typTx)
			d.avg *= math.Pow(1-d.cfg.Wq, m)
		}
	} else {
		d.avg += d.cfg.Wq * (float64(total) - d.avg)
	}

	drop := false
	switch {
	case d.avg >= d.cfg.MaxTh:
		drop = true
	case d.avg >= d.cfg.MinTh:
		d.count++
		pb := d.cfg.MaxP * (d.avg - d.cfg.MinTh) / (d.cfg.MaxTh - d.cfg.MinTh)
		pa := pb
		if f := 1 - float64(d.count)*pb; f > 0 {
			pa = pb / f
		} else {
			pa = 1
		}
		drop = d.rng.Float64() < pa
	default:
		d.count = -1
	}
	// The physical buffer still binds: a full queue forces the drop
	// whatever the average says.
	if c := d.h.Capacity(); c > 0 && total >= c {
		drop = true
	}
	if drop {
		d.count = 0
		d.h.Drop(p)
		return false
	}
	d.q.Push(p)
	return true
}

// splitmix is a rand.Source64 that costs nothing to seed, so 10⁵
// sequences can each have their own streams.
type splitmix uint64

func (s *splitmix) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(v int64) { *s = splitmix(v) }

// redHost is the port a RED under test is bound to: a clock the test
// moves, a transmitter flag, and the list of dropped packet ids.
type redHost struct {
	now       time.Duration
	capacity  int
	inService int
	dropped   []uint64
}

func (h *redHost) Now() time.Duration            { return h.now }
func (h *redHost) Capacity() int                 { return h.capacity }
func (h *redHost) InService() int                { return h.inService }
func (h *redHost) Drop(p *packet.Packet)         { h.dropped = append(h.dropped, p.ID) }
func (h *redHost) NominalTx(n int) time.Duration { return TxTime(n, 50_000) }

// TestREDZeroAverageGuardIsBitIdentical drives the guarded Admit and
// the referee through the same seeded arrival/departure sequences —
// bursts that push the average through both thresholds, drains, idle
// gaps from a fraction of a packet time to thousands — and compares the
// average bit for bit, the count and every drop after every step.
func TestREDZeroAverageGuardIsBitIdentical(t *testing.T) {
	sequences, steps := 100_000, 48
	if testing.Short() {
		sequences = 5_000
	}
	wqs := []float64{0.002, 0.01, 0.2, 1}
	var guarded, decayed, drops int // idle arrivals that met a zero and a nonzero average; packets dropped
	for seq := 0; seq < sequences; seq++ {
		src := splitmix(seq)
		drive := rand.New(&src)
		cfg := REDConfig{MinTh: float64(1 + drive.Intn(5)), MaxP: 0.02 + 0.5*drive.Float64(), Wq: wqs[drive.Intn(len(wqs))]}
		cfg.MaxTh = cfg.MinTh + float64(1+drive.Intn(10))
		var hosts [2]redHost
		var reds [2]*RED
		for i := range reds {
			s := splitmix(seq) ^ 0xA5A5
			hosts[i].capacity = []int{0, 4, 20}[seq%3]
			reds[i] = NewRED(cfg, rand.New(&s))
			reds[i].Bind(&hosts[i])
		}
		got, ref := reds[0], reds[1]
		var id uint64
		for step := 0; step < steps; step++ {
			var advance time.Duration
			switch op := drive.Intn(10); {
			case op < 5: // an arrival, a fraction of a packet time after the last step
				advance = time.Duration(drive.Int63n(int64(40 * time.Millisecond)))
				hosts[0].now += advance
				hosts[1].now += advance
				id++
				size := 50 + 450*drive.Intn(2)
				if ref.q.Len()+hosts[1].inService == 0 && hosts[1].now > ref.busyEnd && ref.typTx > 0 {
					if ref.avg == 0 {
						guarded++
					} else {
						decayed++
					}
				}
				a := got.Admit(&packet.Packet{ID: id, Size: size})
				b := ref.admitRef(&packet.Packet{ID: id, Size: size})
				if a != b {
					t.Fatalf("seq %d step %d: Admit = %v, referee %v", seq, step, a, b)
				}
			case op < 8: // the transmitter takes the next packet, or falls idle
				for i, d := range reds {
					hosts[i].inService = 0
					if d.Dequeue() != nil {
						hosts[i].inService = 1
					}
				}
			default: // an idle gap: the queue drains and the clock runs on
				for i, d := range reds {
					for d.Dequeue() != nil {
					}
					hosts[i].inService = 0
				}
				advance = time.Duration(drive.Int63n(int64(400 * time.Second)))
				hosts[0].now += advance
				hosts[1].now += advance
			}
			if math.Float64bits(got.avg) != math.Float64bits(ref.avg) || got.count != ref.count {
				t.Fatalf("seq %d step %d: avg %x count %d, referee avg %x count %d",
					seq, step, math.Float64bits(got.avg), got.count, math.Float64bits(ref.avg), ref.count)
			}
			if g, r := hosts[0].dropped, hosts[1].dropped; len(g) != len(r) || (len(g) > 0 && g[len(g)-1] != r[len(r)-1]) {
				t.Fatalf("seq %d step %d: dropped %v, referee %v", seq, step, g, r)
			}
		}
		drops += len(hosts[1].dropped)
	}
	if guarded == 0 || decayed == 0 || drops == 0 {
		t.Fatalf("the sequences met a zero average on %d idle arrivals, a nonzero one on %d, and dropped %d packets; all three must occur",
			guarded, decayed, drops)
	}
	t.Logf("%d sequences: %d idle arrivals at a zero average, %d at a nonzero one, %d drops", sequences, guarded, decayed, drops)
}
