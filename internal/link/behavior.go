package link

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"tahoedyn/internal/packet"
)

// Behavior is a link behavior: per-packet impairment plus a
// time-varying line rate. The paper's lines are ideal — error-free,
// constant-rate — and a nil behavior reproduces them exactly. A
// behavior replaces the old link.Lossy receiver wrapper and extends it
// with jitter, bursty (Gilbert-Elliott) loss, and trace-driven
// bandwidth replay.
type Behavior interface {
	// Rate returns the line rate in bits per second at time now, or a
	// value <= 0 to keep the port's configured bandwidth. It is sampled
	// once per packet, when serialization starts.
	Rate(now time.Duration) int64
	// Impair is consulted once per departing packet, after its last bit
	// leaves the port: extra is added to the propagation delay, and
	// drop discards the packet instead (a line loss). Impair must not
	// retain p.
	Impair(p *packet.Packet, now time.Duration) (extra time.Duration, drop bool)
}

// GEConfig parameterizes a two-state Gilbert-Elliott loss channel: per
// packet the state transitions with the given probabilities, and the
// packet is lost with BadLoss in the bad state (the good state is
// loss-free).
type GEConfig struct {
	// GoodToBad and BadToGood are the per-packet transition
	// probabilities.
	GoodToBad, BadToGood float64
	// BadLoss is the loss probability while in the bad state.
	BadLoss float64
}

func (c *GEConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"good_to_bad", c.GoodToBad}, {"bad_to_good", c.BadToGood}, {"bad_loss", c.BadLoss}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("link: Gilbert-Elliott %s %g outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// ImpairmentConfig describes a stochastic link impairment. The zero
// value impairs nothing.
type ImpairmentConfig struct {
	// Loss is a Bernoulli per-packet loss probability. Ignored when GE
	// is set.
	Loss float64
	// GE, when non-nil, selects the bursty Gilbert-Elliott loss channel
	// instead of Bernoulli loss.
	GE *GEConfig
	// Jitter adds a uniform extra delay in [0, Jitter] to each
	// surviving packet.
	Jitter time.Duration
	// Reorder permits jittered packets to overtake each other. When
	// false (the default), each packet's departure is clamped to stay
	// behind the previous one's, so jitter never reorders the line.
	Reorder bool
	// Trace, when non-nil, replays a time-varying line rate.
	Trace *RateTrace
}

func (c *ImpairmentConfig) validate() error {
	if c.Loss < 0 || c.Loss > 1 {
		return fmt.Errorf("link: loss probability %g outside [0,1]", c.Loss)
	}
	if c.GE != nil {
		if err := c.GE.validate(); err != nil {
			return err
		}
	}
	if c.Jitter < 0 {
		return fmt.Errorf("link: negative jitter %v", c.Jitter)
	}
	if c.Jitter > math.MaxInt64/2 { // Impair adds a draw from [0, Jitter] to the clock
		return fmt.Errorf("link: jitter %v too large", c.Jitter)
	}
	return nil
}

// Impairment is the standard Behavior implementation: Bernoulli or
// Gilbert-Elliott loss, bounded uniform jitter with optional
// reordering, and trace-driven rate replay. Draw order per packet is
// fixed — loss first, then jitter for survivors — so a seeded stream
// reproduces exactly.
type Impairment struct {
	cfg ImpairmentConfig
	rng *rand.Rand

	bad     bool          // Gilbert-Elliott channel state
	lastOut time.Duration // latest departure handed to the line (no-reorder clamp)
}

// NewImpairment builds an impairment from cfg, driven by the given
// seeded source (required unless the config draws nothing).
func NewImpairment(cfg ImpairmentConfig, rng *rand.Rand) (*Impairment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	draws := cfg.Loss > 0 || cfg.GE != nil || cfg.Jitter > 0
	if draws && rng == nil {
		return nil, fmt.Errorf("link: impairment with stochastic terms needs a Rand source")
	}
	return &Impairment{cfg: cfg, rng: rng}, nil
}

// Rate implements Behavior.
func (im *Impairment) Rate(now time.Duration) int64 {
	if im.cfg.Trace == nil {
		return 0
	}
	return im.cfg.Trace.RateAt(now)
}

// Impair implements Behavior.
func (im *Impairment) Impair(p *packet.Packet, now time.Duration) (time.Duration, bool) {
	if ge := im.cfg.GE; ge != nil {
		if im.bad {
			if im.rng.Float64() < ge.BadToGood {
				im.bad = false
			}
		} else if im.rng.Float64() < ge.GoodToBad {
			im.bad = true
		}
		if im.bad && im.rng.Float64() < ge.BadLoss {
			return 0, true
		}
	} else if im.cfg.Loss > 0 && im.rng.Float64() < im.cfg.Loss {
		return 0, true
	}
	var extra time.Duration
	if im.cfg.Jitter > 0 {
		extra = time.Duration(im.rng.Int63n(int64(im.cfg.Jitter) + 1))
		if !im.cfg.Reorder {
			// Clamp so this packet leaves the jitter stage no earlier
			// than its predecessor: constant propagation then preserves
			// order on the line.
			if now+extra < im.lastOut {
				extra = im.lastOut - now
			}
			im.lastOut = now + extra
		}
	}
	return extra, false
}

// RateStep is one segment of a rate trace: hold the rate for the given
// duration.
type RateStep struct {
	Hold time.Duration
	Rate int64 // bits per second
}

// RateTrace is a timestamped bandwidth schedule, cellular-trace
// shaped: a sequence of (hold, rate) steps that repeats with period
// equal to the total hold time. RateAt is O(log steps).
type RateTrace struct {
	steps []RateStep
	offs  []time.Duration // cumulative start offset of each step
	cycle time.Duration
}

// NewRateTrace builds a trace from explicit steps.
func NewRateTrace(steps []RateStep) (*RateTrace, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("link: rate trace has no steps")
	}
	rt := &RateTrace{steps: steps, offs: make([]time.Duration, len(steps))}
	for i, s := range steps {
		if s.Hold <= 0 {
			return nil, fmt.Errorf("link: rate trace step %d holds for %v; durations must be positive", i, s.Hold)
		}
		if s.Rate <= 0 {
			return nil, fmt.Errorf("link: rate trace step %d has non-positive rate %d", i, s.Rate)
		}
		rt.offs[i] = rt.cycle
		if rt.cycle += s.Hold; rt.cycle < 0 {
			return nil, fmt.Errorf("link: rate trace holds for more than %v in all; the period overflows at step %d", time.Duration(math.MaxInt64), i)
		}
	}
	return rt, nil
}

// ParseRateTrace reads the trace file format: one step per line,
// "<hold-duration> <rate-bits-per-second>" (e.g. "250ms 32000"),
// with blank lines and #-comments ignored. The schedule loops.
func ParseRateTrace(r io.Reader) (*RateTrace, error) {
	var steps []RateStep
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("link: rate trace line %d: want \"<duration> <bits/s>\", got %q", lineNo, line)
		}
		hold, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("link: rate trace line %d: bad duration %q: %v", lineNo, fields[0], err)
		}
		rate, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("link: rate trace line %d: bad rate %q: %v", lineNo, fields[1], err)
		}
		steps = append(steps, RateStep{Hold: hold, Rate: rate})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewRateTrace(steps)
}

// LoadRateTrace reads a trace file from disk (see ParseRateTrace).
func LoadRateTrace(path string) (*RateTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rt, err := ParseRateTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rt, nil
}

// Cycle returns the trace period.
func (rt *RateTrace) Cycle() time.Duration { return rt.cycle }

// Steps returns the trace's step sequence.
func (rt *RateTrace) Steps() []RateStep { return rt.steps }

// RateAt returns the scheduled rate at time now, looping past the end.
func (rt *RateTrace) RateAt(now time.Duration) int64 {
	if now < 0 {
		now = 0
	}
	t := now % rt.cycle
	// Binary search for the last step starting at or before t.
	lo, hi := 0, len(rt.offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rt.offs[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return rt.steps[lo-1].Rate
}
