package link

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tahoedyn/internal/packet"
)

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson,
// 1993). Thresholds are in packets, against the EWMA queue average.
// Zero fields take the defaults below, chosen for the paper's 20-packet
// bottleneck buffers.
type REDConfig struct {
	// MinTh is the average queue length below which no packet is
	// dropped. Default 5.
	MinTh float64
	// MaxTh is the average queue length at and above which every
	// arrival is dropped. Default 15.
	MaxTh float64
	// MaxP is the drop probability as the average reaches MaxTh.
	// Default 0.02.
	MaxP float64
	// Wq is the EWMA weight: avg += Wq * (q - avg) per arrival.
	// Default 0.002.
	Wq float64
}

func (c *REDConfig) fillDefaults() {
	if c.MinTh == 0 {
		c.MinTh = 5
	}
	if c.MaxTh == 0 {
		c.MaxTh = 15
	}
	if c.MaxP == 0 {
		c.MaxP = 0.02
	}
	if c.Wq == 0 {
		c.Wq = 0.002
	}
}

func (c *REDConfig) validate() error {
	if c.MinTh < 0 || c.MaxTh <= c.MinTh {
		return fmt.Errorf("link: RED thresholds need 0 <= min_th < max_th, got %g/%g", c.MinTh, c.MaxTh)
	}
	if c.MaxP <= 0 || c.MaxP > 1 {
		return fmt.Errorf("link: RED max_p %g outside (0,1]", c.MaxP)
	}
	if c.Wq <= 0 || c.Wq > 1 {
		return fmt.Errorf("link: RED wq %g outside (0,1]", c.Wq)
	}
	return nil
}

// RED is the Random Early Detection AQM discipline: FIFO service, with
// arrivals dropped probabilistically as the exponentially weighted
// average queue length moves between MinTh and MaxTh, and always at or
// above MaxTh. The count-based correction of the RED paper spreads the
// early drops out: pa = pb / (1 - count*pb), where count is the number
// of arrivals accepted since the last drop.
//
// All randomness comes from the discipline's own seeded source — in a
// scenario run, a per-entity stream derived from Config.Seed and the
// port's stable index (DESIGN.md §15) — so sharded runs reproduce the
// serial drop sequence exactly.
type RED struct {
	h   DiscHost
	q   packet.Queue
	cfg REDConfig
	rng *rand.Rand

	avg   float64
	count int // arrivals since the last drop; -1 below MinTh

	// Idle aging: when an arrival finds the link idle, the average
	// decays by (1-Wq)^m where m estimates how many typical packets
	// could have been sent while idle. busyEnd is the nominal finish
	// time of the last transmission started; typTx its serialization
	// time.
	busyEnd time.Duration
	typTx   time.Duration
}

// NewRED returns a RED discipline with the given thresholds, driven by
// the given seeded source (required).
func NewRED(cfg REDConfig, rng *rand.Rand) *RED {
	if rng == nil {
		panic("link: RED needs a Rand source")
	}
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		panic(err.Error())
	}
	return &RED{cfg: cfg, rng: rng, count: -1}
}

// Bind implements Disc.
func (d *RED) Bind(h DiscHost) { d.h = h }

// Len implements Disc.
func (d *RED) Len() int { return d.q.Len() }

// Admit implements Disc.
func (d *RED) Admit(p *packet.Packet) bool {
	total := d.q.Len() + d.h.InService()
	now := d.h.Now()
	if total == 0 {
		// Arrival to an idle link: decay the average across the idle
		// period, measured in typical packet times. A zero average (an
		// access port) stays +0 times any factor in [0, 1]: not computed.
		if idle := now - d.busyEnd; d.avg != 0 && idle > 0 && d.typTx > 0 {
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

// Dequeue implements Disc.
func (d *RED) Dequeue() *packet.Packet {
	p := d.q.Pop()
	if p != nil {
		d.typTx = d.h.NominalTx(p.Size)
		d.busyEnd = d.h.Now() + d.typTx
	}
	return p
}
