package link

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Queue policy names accepted by QueueSpec.Policy, scenario JSON
// "queue" objects, and the -queue CLI flag.
const (
	PolicyDropTail   = "drop-tail"
	PolicyRandomDrop = "random-drop"
	PolicyFairQueue  = "fair-queue"
	PolicyRED        = "red"
)

// QueueSpec is a declarative queue-discipline description: the bridge
// between configuration surfaces (scenario JSON, CLI flags, the
// facade) and a Disc instance. The zero Policy means drop-tail.
type QueueSpec struct {
	// Policy is one of the Policy* constants.
	Policy string
	// MinTh/MaxTh/MaxP/Wq parameterize the "red" policy (zero fields
	// take the RED defaults); they must be unset for other policies.
	MinTh, MaxTh, MaxP, Wq float64
}

// Validate reports the first problem with the spec.
func (s *QueueSpec) Validate() error {
	switch s.Policy {
	case "", PolicyDropTail, PolicyRandomDrop, PolicyFairQueue:
		if s.MinTh != 0 || s.MaxTh != 0 || s.MaxP != 0 || s.Wq != 0 {
			return fmt.Errorf("link: queue policy %q takes no RED thresholds", s.policy())
		}
		return nil
	case PolicyRED:
		c := s.redConfig()
		c.fillDefaults()
		return c.validate()
	default:
		return fmt.Errorf("link: unknown queue policy %q (want %s, %s, %s, or %s)",
			s.Policy, PolicyDropTail, PolicyRandomDrop, PolicyFairQueue, PolicyRED)
	}
}

func (s *QueueSpec) policy() string {
	if s.Policy == "" {
		return PolicyDropTail
	}
	return s.Policy
}

func (s *QueueSpec) redConfig() REDConfig {
	return REDConfig{MinTh: s.MinTh, MaxTh: s.MaxTh, MaxP: s.MaxP, Wq: s.Wq}
}

// NeedsRand reports whether Build requires a seeded source.
func (s *QueueSpec) NeedsRand() bool {
	return s.Policy == PolicyRandomDrop || s.Policy == PolicyRED
}

// Build materializes the discipline. rng is required iff NeedsRand.
// Drop-tail builds nothing: it returns (nil, nil), which Config.Disc
// reads as drop-tail, run by the port itself.
func (s *QueueSpec) Build(rng *rand.Rand) (Disc, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NeedsRand() && rng == nil {
		return nil, fmt.Errorf("link: queue policy %q needs a Rand source", s.Policy)
	}
	switch s.policy() {
	case PolicyDropTail:
		return nil, nil
	case PolicyRandomDrop:
		return NewRandomDrop(rng), nil
	case PolicyFairQueue:
		return NewFQ(), nil
	default: // PolicyRED; Validate rejected everything else
		return NewRED(s.redConfig(), rng), nil
	}
}

// ParseQueueSpec parses the -queue flag syntax: a policy name,
// optionally followed by ":" and comma-separated key=value parameters.
// Examples: "drop-tail", "fair-queue", "red",
// "red:min=5,max=15,p=0.02,wq=0.002".
func ParseQueueSpec(text string) (*QueueSpec, error) {
	policy, params, _ := strings.Cut(text, ":")
	s := &QueueSpec{Policy: strings.TrimSpace(policy)}
	if params != "" {
		if s.Policy != PolicyRED {
			return nil, fmt.Errorf("link: queue policy %q takes no parameters", s.Policy)
		}
		for _, kv := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("link: queue parameter %q is not key=value", kv)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("link: queue parameter %q: %v", kv, err)
			}
			switch strings.TrimSpace(k) {
			case "min", "min_th":
				s.MinTh = f
			case "max", "max_th":
				s.MaxTh = f
			case "p", "max_p":
				s.MaxP = f
			case "wq":
				s.Wq = f
			default:
				return nil, fmt.Errorf("link: unknown queue parameter %q (want min, max, p, wq)", k)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// BehaviorSpec is a declarative link-behavior description. The zero
// value means "no behavior" (an ideal line).
type BehaviorSpec struct {
	// Loss is the Bernoulli loss probability.
	Loss float64
	// GoodToBad/BadToGood/BadLoss select the Gilbert-Elliott channel
	// when any is non-zero, replacing Loss.
	GoodToBad, BadToGood, BadLoss float64
	// Jitter bounds the uniform extra propagation delay.
	Jitter time.Duration
	// Reorder lets jittered packets overtake each other.
	Reorder bool
	// Trace, when non-nil, replays a time-varying line rate.
	Trace *RateTrace
}

// IsZero reports whether the spec describes an ideal line.
func (s *BehaviorSpec) IsZero() bool {
	return s == nil || *s == BehaviorSpec{}
}

func (s *BehaviorSpec) ge() *GEConfig {
	if s.GoodToBad == 0 && s.BadToGood == 0 && s.BadLoss == 0 {
		return nil
	}
	return &GEConfig{GoodToBad: s.GoodToBad, BadToGood: s.BadToGood, BadLoss: s.BadLoss}
}

func (s *BehaviorSpec) impairment() ImpairmentConfig {
	return ImpairmentConfig{
		Loss:    s.Loss,
		GE:      s.ge(),
		Jitter:  s.Jitter,
		Reorder: s.Reorder,
		Trace:   s.Trace,
	}
}

// Validate reports the first problem with the spec.
func (s *BehaviorSpec) Validate() error {
	if s.ge() != nil && s.Loss != 0 {
		return fmt.Errorf("link: behavior sets both Bernoulli loss and Gilbert-Elliott parameters; pick one loss model")
	}
	if s.Reorder && s.Jitter == 0 {
		return fmt.Errorf("link: behavior sets reorder without jitter; reordering needs a jitter bound")
	}
	c := s.impairment()
	return c.validate()
}

// NeedsRand reports whether Build requires a seeded source.
func (s *BehaviorSpec) NeedsRand() bool {
	return s.Loss > 0 || s.ge() != nil || s.Jitter > 0
}

// Build materializes the behavior, or returns nil for a zero spec.
// rng is required iff NeedsRand.
func (s *BehaviorSpec) Build(rng *rand.Rand) (Behavior, error) {
	if s.IsZero() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	im, err := NewImpairment(s.impairment(), rng)
	if err != nil {
		return nil, err
	}
	return im, nil
}

// ParseBehaviorSpec parses the -behavior flag syntax: comma-separated
// terms. Examples: "loss=0.01", "ge=0.01/0.3/0.5" (good→bad,
// bad→good, bad-state loss), "jitter=5ms", "jitter=5ms,reorder",
// "trace=path/to/rates.rt", and combinations ("loss=0.01,jitter=2ms").
// trace= loads the schedule file immediately.
func ParseBehaviorSpec(text string) (*BehaviorSpec, error) {
	s := &BehaviorSpec{}
	for _, term := range strings.Split(text, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if term == "reorder" {
			s.Reorder = true
			continue
		}
		k, v, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("link: behavior term %q is not key=value", term)
		}
		switch k {
		case "loss":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("link: behavior loss %q: %v", v, err)
			}
			s.Loss = f
		case "ge":
			parts := strings.Split(v, "/")
			if len(parts) != 3 {
				return nil, fmt.Errorf("link: behavior ge %q: want good_to_bad/bad_to_good/bad_loss", v)
			}
			vals := make([]float64, 3)
			for i, p := range parts {
				f, err := strconv.ParseFloat(p, 64)
				if err != nil {
					return nil, fmt.Errorf("link: behavior ge %q: %v", v, err)
				}
				vals[i] = f
			}
			s.GoodToBad, s.BadToGood, s.BadLoss = vals[0], vals[1], vals[2]
		case "jitter":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("link: behavior jitter %q: %v", v, err)
			}
			s.Jitter = d
		case "trace":
			rt, err := LoadRateTrace(v)
			if err != nil {
				return nil, err
			}
			s.Trace = rt
		default:
			return nil, fmt.Errorf("link: unknown behavior term %q (want loss, ge, jitter, reorder, trace)", k)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
