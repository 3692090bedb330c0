// Package scenario reads and writes simulation configurations as JSON,
// with human-readable durations ("10ms", "1s") and named policies
// ("drop-tail", "random-drop", "fifo", "fair-queue"). It exists so
// downstream users can keep scenarios in files instead of Go code:
//
//	tahoe-sim -config two-way.json
//
// Encoding is canonical: Encode always produces the same bytes for the
// same File, and Decode∘Encode is a fixed point on canonical files. The
// golden tests pin the shipped scenarios to this form.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/link"
	"tahoedyn/internal/topology"
)

// File is the JSON representation of a core.Config.
type File struct {
	// Switches on the line; 0 means 2 (the dumbbell). Ignored when
	// Topology is set.
	Switches int `json:"switches,omitempty"`
	// Topology replaces the default switch line with an arbitrary graph.
	Topology *Topology `json:"topology,omitempty"`
	// TrunkBandwidth in bits/s; 0 means the paper's 50000.
	TrunkBandwidth int64 `json:"trunk_bandwidth,omitempty"`
	// TrunkDelay is the propagation delay τ, e.g. "10ms".
	TrunkDelay string `json:"trunk_delay"`
	// Buffer in packets; 0 or "infinite" semantics: <= 0 is unbounded.
	Buffer int `json:"buffer"`
	// AccessBandwidth/AccessDelay/HostProcessing default to the paper's
	// values when omitted.
	AccessBandwidth int64  `json:"access_bandwidth,omitempty"`
	AccessDelay     string `json:"access_delay,omitempty"`
	HostProcessing  string `json:"host_processing,omitempty"`
	// Discard ("drop-tail" default, or "random-drop") and Discipline
	// ("fifo" default, or "fair-queue") are input sugar for Queue, kept
	// so old files load: the pair maps to one queue policy, fair-queue
	// winning over random-drop.
	Discard    string `json:"discard,omitempty"`
	Discipline string `json:"discipline,omitempty"`
	// Queue selects the queue discipline of every switch output port.
	// Setting it alongside Discard/Discipline is an error.
	Queue *Queue `json:"queue,omitempty"`
	// Behavior applies a link behavior (stochastic loss, jitter,
	// trace-driven rate replay) to every trunk port.
	Behavior *Behavior `json:"behavior,omitempty"`
	// DataSize/AckSize in bytes; zero DataSize means 500. AckSize is a
	// pointer so that an explicit 0 (the zero-length-ACK conjecture
	// experiments) is distinguishable from "omitted, use the paper's 50".
	// (The pre-pointer spelling "ack_size_zero" is gone: strict and
	// lenient parsing both reject it with a migration hint.)
	DataSize int  `json:"data_size,omitempty"`
	AckSize  *int `json:"ack_size,omitempty"`

	Conns []Conn `json:"conns"`

	// Events lists mid-run link changes — bandwidth steps and link-down
	// events — applied in time order. Runs with events remain
	// byte-identical at every shard count.
	Events []Event `json:"events,omitempty"`

	// Shards partitions the run into this many regions executed in
	// parallel (0 = the process default, normally serial). Like the
	// scheduler choice it is a wall-clock knob only: results are
	// byte-identical at any shard count.
	Shards int `json:"shards,omitempty"`
	// Regions explicitly assigns switches to regions (regions[r] lists
	// the switches of region r, covering every switch exactly once),
	// overriding the automatic partitioner; its length fixes the shard
	// count.
	Regions [][]int `json:"regions,omitempty"`

	Seed        int64  `json:"seed,omitempty"`
	StartSpread string `json:"start_spread,omitempty"`
	Warmup      string `json:"warmup,omitempty"`
	Duration    string `json:"duration,omitempty"`
}

// Topology is the JSON representation of a topology.Graph: either a
// named generator or an explicit switch/link list, optionally with
// explicit host placement. Routes are always the compiler's shortest
// paths.
type Topology struct {
	// Generator names a built-in graph: "dumbbell", "chain",
	// "parking-lot", "ba" (Barabási–Albert scale-free), or "waxman"
	// (random geometric). Mutually exclusive with Switches/Links.
	Generator string `json:"generator,omitempty"`
	// Size parameterizes the generator: switches for "chain", "ba", and
	// "waxman", bottleneck hops for "parking-lot". Rejected for
	// "dumbbell" and for an explicit graph.
	Size int `json:"size,omitempty"`
	// M is the "ba" generator's attachment count (links added per
	// joining switch); Seed drives the "ba" and "waxman" generators'
	// randomness. Each is rejected on generators that do not use it, so
	// a misplaced field fails loudly instead of silently changing the
	// graph.
	M    int   `json:"m,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Switches/Links describe an explicit graph.
	Switches int        `json:"switches,omitempty"`
	Links    []TopoLink `json:"links,omitempty"`
	// Hosts places hosts on switches; empty means one host per switch.
	Hosts []TopoHost `json:"hosts,omitempty"`
}

// TopoLink is one duplex link. Zero Bandwidth/Delay/Buffer inherit the
// scenario's trunk defaults; Buffer -1 means unbounded. Queue and
// Behavior override the scenario-wide objects for this link (both
// directions).
type TopoLink struct {
	A         int       `json:"a"`
	B         int       `json:"b"`
	Bandwidth int64     `json:"bandwidth,omitempty"`
	Delay     string    `json:"delay,omitempty"`
	Buffer    int       `json:"buffer,omitempty"`
	Queue     *Queue    `json:"queue,omitempty"`
	Behavior  *Behavior `json:"behavior,omitempty"`
}

// Queue is the JSON representation of a link.QueueSpec: a queue
// discipline by name plus the RED thresholds when policy is "red".
type Queue struct {
	// Policy is "drop-tail", "random-drop", "fair-queue", or "red".
	Policy string `json:"policy"`
	// MinTh/MaxTh/MaxP/Wq parameterize "red" (zero takes the RED
	// defaults); they are rejected under any other policy.
	MinTh float64 `json:"min_th,omitempty"`
	MaxTh float64 `json:"max_th,omitempty"`
	MaxP  float64 `json:"max_p,omitempty"`
	Wq    float64 `json:"wq,omitempty"`
}

// Behavior is the JSON representation of a link.BehaviorSpec.
type Behavior struct {
	// Loss is a Bernoulli per-packet loss probability.
	Loss float64 `json:"loss,omitempty"`
	// GoodToBad/BadToGood/BadLoss select the Gilbert-Elliott bursty loss
	// channel (mutually exclusive with Loss).
	GoodToBad float64 `json:"good_to_bad,omitempty"`
	BadToGood float64 `json:"bad_to_good,omitempty"`
	BadLoss   float64 `json:"bad_loss,omitempty"`
	// Jitter bounds the uniform extra delay, e.g. "5ms".
	Jitter string `json:"jitter,omitempty"`
	// Reorder lets jittered packets overtake each other.
	Reorder bool `json:"reorder,omitempty"`
	// RateTrace is the path of a bandwidth-replay schedule file (one
	// "<duration> <bits/s>" step per line; the schedule loops). Loaded
	// when the scenario is converted to a Config.
	RateTrace string `json:"rate_trace,omitempty"`
}

// TopoHost places one host on a switch.
type TopoHost struct {
	Switch int `json:"switch"`
}

// Event is the JSON representation of a core.LinkEvent: a mid-run
// change to one trunk link. Exactly one of Bandwidth/Down is set.
type Event struct {
	// T is the simulation time the change takes effect, e.g. "120s".
	T string `json:"t"`
	// Link is the topology link index (for the default chain, link i
	// joins switches i and i+1).
	Link int `json:"link"`
	// Bandwidth is the link's new rate in bits/s.
	Bandwidth int64 `json:"bandwidth,omitempty"`
	// Down removes the link from routing; packets already queued on or
	// flying over it still deliver.
	Down bool `json:"down,omitempty"`
}

// Conn is the JSON representation of a core.ConnSpec.
type Conn struct {
	Src              int    `json:"src"`
	Dst              int    `json:"dst"`
	MaxWnd           int    `json:"max_wnd,omitempty"`
	FixedWnd         int    `json:"fixed_wnd,omitempty"`
	DelayedAck       bool   `json:"delayed_ack,omitempty"`
	Reno             bool   `json:"reno,omitempty"`
	OriginalIncrease bool   `json:"original_increase,omitempty"`
	Pace             string `json:"pace,omitempty"`
	ExtraDelay       string `json:"extra_delay,omitempty"`
	// Start is a duration, or "random" (the default) for a random start.
	Start string `json:"start,omitempty"`
	// Source replaces the TCP endpoints with a non-TCP generator.
	Source *Source `json:"source,omitempty"`
}

// Source is the JSON representation of a core.SourceSpec: a non-TCP
// traffic generator in place of the connection's TCP endpoints.
type Source struct {
	// Kind is "cbr" or "onoff" ("tcp" keeps the default endpoints).
	Kind string `json:"kind"`
	// Rate is the offered bit rate while active.
	Rate int64 `json:"rate,omitempty"`
	// Size is the packet size in bytes; 0 means data_size.
	Size int `json:"size,omitempty"`
	// OnMean/OffMean are the exponential period means of "onoff",
	// e.g. "500ms".
	OnMean  string `json:"on_mean,omitempty"`
	OffMean string `json:"off_mean,omitempty"`
}

// Decode reads a JSON scenario file without converting it: the result
// re-encodes to the same bytes when the input is canonical.
//
// Decode is strict about field names: every key in the document that no
// File field declares is an error, and — unlike encoding/json's
// DisallowUnknownFields, which stops at the first offender — the
// returned error is the errors.Join of one error per unknown field,
// each naming its full path (e.g. "topology.links[0].bandwith"). Use
// DecodeLenient to load a file from a newer or foreign producer anyway.
func Decode(r io.Reader) (*File, error) {
	f, unknown, err := decode(r)
	if err != nil {
		return nil, err
	}
	if len(unknown) > 0 {
		errs := make([]error, len(unknown))
		for i, path := range unknown {
			errs[i] = fmt.Errorf("scenario: unknown field %q", path)
		}
		return nil, errors.Join(errs...)
	}
	return f, nil
}

// DecodeLenient reads a JSON scenario file, ignoring unknown fields
// instead of rejecting them. The paths of the ignored fields are
// returned so callers can warn (tahoe-sim -lenient prints them to
// stderr). Syntax and type errors are still errors, and so is the
// removed "ack_size_zero" field.
func DecodeLenient(r io.Reader) (*File, []string, error) {
	return decode(r)
}

// decode is the shared strict/lenient reader: unmarshal leniently, then
// diff the document's keys against the File schema.
func decode(r io.Reader) (*File, []string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	var unknown []string
	unknownFields(reflect.TypeOf(File{}), doc, "", &unknown)
	for _, r := range removed {
		if slices.Contains(unknown, r.path) {
			return nil, nil, fmt.Errorf("scenario: field %q was removed; %s", r.path, r.instead)
		}
	}
	return &f, unknown, nil
}

// removed lists the fields a scenario may no longer carry. Each is an
// error on the lenient path too: ignoring it would silently run an old
// file differently — "ack_size_zero" with 50-byte ACKs instead of
// zero-length ones, "topology.routes" on shortest paths instead of the
// routes it forced.
var removed = []struct{ path, instead string }{
	{"ack_size_zero", `write "ack_size": 0 instead`},
	{"topology.routes", "every route is the shortest path the compiler finds"},
}

// unknownFields walks the decoded JSON document alongside the target Go
// type and appends the path of every object key the type has no field
// for. Paths use dotted/indexed notation rooted at the document
// ("topology.links[0].bandwith"). Keys within one object are reported
// in sorted order (JSON object keys are unordered after decoding).
func unknownFields(t reflect.Type, doc any, path string, out *[]string) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Struct:
		obj, ok := doc.(map[string]any)
		if !ok {
			return
		}
		fields := jsonFields(t)
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child := path + "." + k
			if path == "" {
				child = k
			}
			ft, ok := fields[k]
			if !ok {
				*out = append(*out, child)
				continue
			}
			unknownFields(ft, obj[k], child, out)
		}
	case reflect.Slice, reflect.Array:
		arr, ok := doc.([]any)
		if !ok {
			return
		}
		for i, el := range arr {
			unknownFields(t.Elem(), el, fmt.Sprintf("%s[%d]", path, i), out)
		}
	}
}

// jsonFields maps a struct's JSON key names to their field types,
// honoring `json:"name,opts"` tags the way encoding/json does for the
// flat, tag-complete structs this package declares.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	fields := make(map[string]reflect.Type, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		name := sf.Name
		if tag := sf.Tag.Get("json"); tag != "" {
			tagName, _, _ := strings.Cut(tag, ",")
			if tagName == "-" {
				continue
			}
			if tagName != "" {
				name = tagName
			}
		}
		fields[name] = sf.Type
	}
	return fields
}

// Encode writes the canonical JSON form: two-space indent, fixed field
// order, trailing newline. Encoding the result of Decode reproduces a
// canonical input byte for byte.
func (f *File) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Parse reads a JSON scenario and converts it to a runnable Config.
// Unknown fields are errors, all of them reported at once; see Decode.
func Parse(r io.Reader) (core.Config, error) {
	f, err := Decode(r)
	if err != nil {
		return core.Config{}, err
	}
	return f.Config()
}

// ParseLenient is Parse with unknown fields ignored rather than
// rejected; the ignored paths are returned alongside the Config.
func ParseLenient(r io.Reader) (core.Config, []string, error) {
	f, unknown, err := DecodeLenient(r)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg, err := f.Config()
	return cfg, unknown, err
}

// Config converts the file form to a core.Config, applying defaults and
// validating the topology and connection endpoints, so that file errors
// surface as errors rather than core's construction-time panics.
func (f *File) Config() (core.Config, error) {
	cfg := core.Config{
		Switches:        f.Switches,
		TrunkBandwidth:  f.TrunkBandwidth,
		Buffer:          f.Buffer,
		AccessBandwidth: f.AccessBandwidth,
		DataSize:        f.DataSize,
		Shards:          f.Shards,
		Regions:         f.Regions,
		Seed:            f.Seed,
	}
	if f.AckSize != nil {
		cfg.AckSize = *f.AckSize
	} else {
		cfg.AckSize = core.DefaultAckSize
	}
	if cfg.AckSize < 0 {
		return cfg, fmt.Errorf("scenario: negative ack_size")
	}
	var err error
	if cfg.TrunkDelay, err = parseDur("trunk_delay", f.TrunkDelay, 0); err != nil {
		return cfg, err
	}
	if f.TrunkDelay == "" {
		return cfg, fmt.Errorf("scenario: trunk_delay is required")
	}
	if cfg.AccessDelay, err = parseDur("access_delay", f.AccessDelay, core.DefaultAccessDelay); err != nil {
		return cfg, err
	}
	if cfg.HostProcessing, err = parseDur("host_processing", f.HostProcessing, core.DefaultHostProcessing); err != nil {
		return cfg, err
	}
	if cfg.StartSpread, err = parseDur("start_spread", f.StartSpread, 0); err != nil {
		return cfg, err
	}
	if cfg.Warmup, err = parseDur("warmup", f.Warmup, 100*time.Second); err != nil {
		return cfg, err
	}
	if cfg.Duration, err = parseDur("duration", f.Duration, 600*time.Second); err != nil {
		return cfg, err
	}
	// The legacy strings are sugar for a QueueSpec. Fair queueing wins
	// over random-drop (it never used the random source); the drop-tail
	// FIFO pair stays nil, core's default.
	switch f.Discard {
	case "", link.PolicyDropTail:
	case link.PolicyRandomDrop:
		cfg.Queue = &link.QueueSpec{Policy: link.PolicyRandomDrop}
	default:
		return cfg, fmt.Errorf("scenario: unknown discard %q", f.Discard)
	}
	switch f.Discipline {
	case "", "fifo":
	case link.PolicyFairQueue:
		cfg.Queue = &link.QueueSpec{Policy: link.PolicyFairQueue}
	default:
		return cfg, fmt.Errorf("scenario: unknown discipline %q", f.Discipline)
	}
	if f.Queue != nil {
		if f.Discard != "" || f.Discipline != "" {
			return cfg, fmt.Errorf("scenario: queue and the legacy discard/discipline strings are both set; pick one surface")
		}
		if cfg.Queue, err = f.Queue.spec("queue"); err != nil {
			return cfg, err
		}
	}
	if cfg.Behavior, err = f.Behavior.spec("behavior"); err != nil {
		return cfg, err
	}
	if f.Topology != nil {
		g, err := f.Topology.graph()
		if err != nil {
			return cfg, err
		}
		cfg.Topology = &g
		for li, l := range f.Topology.Links {
			if l.Queue != nil {
				qs, err := l.Queue.spec(fmt.Sprintf("topology.links[%d].queue", li))
				if err != nil {
					return cfg, err
				}
				if cfg.LinkQueue == nil {
					cfg.LinkQueue = make(map[int]*link.QueueSpec)
				}
				cfg.LinkQueue[li] = qs
			}
			if l.Behavior != nil {
				bs, err := l.Behavior.spec(fmt.Sprintf("topology.links[%d].behavior", li))
				if err != nil {
					return cfg, err
				}
				if cfg.LinkBehavior == nil {
					cfg.LinkBehavior = make(map[int]*link.BehaviorSpec)
				}
				cfg.LinkBehavior[li] = bs
			}
		}
	}
	if len(f.Conns) == 0 {
		return cfg, fmt.Errorf("scenario: at least one connection is required")
	}
	for i, c := range f.Conns {
		spec := core.ConnSpec{
			SrcHost:          c.Src,
			DstHost:          c.Dst,
			MaxWnd:           c.MaxWnd,
			FixedWnd:         c.FixedWnd,
			DelayedAck:       c.DelayedAck,
			Reno:             c.Reno,
			OriginalIncrease: c.OriginalIncrease,
		}
		if spec.Pace, err = parseDur(fmt.Sprintf("conns[%d].pace", i), c.Pace, 0); err != nil {
			return cfg, err
		}
		if spec.ExtraDelay, err = parseDur(fmt.Sprintf("conns[%d].extra_delay", i), c.ExtraDelay, 0); err != nil {
			return cfg, err
		}
		switch c.Start {
		case "", "random":
			spec.Start = -1
		default:
			if spec.Start, err = parseDur(fmt.Sprintf("conns[%d].start", i), c.Start, 0); err != nil {
				return cfg, err
			}
		}
		if c.Source != nil {
			ss := &core.SourceSpec{
				Kind: c.Source.Kind,
				Rate: c.Source.Rate,
				Size: c.Source.Size,
			}
			field := fmt.Sprintf("conns[%d].source", i)
			switch ss.Kind {
			case core.SourceTCP, core.SourceCBR, core.SourceOnOff:
			case "":
				return cfg, fmt.Errorf("scenario: %s: kind is required", field)
			default:
				return cfg, fmt.Errorf("scenario: %s: unknown kind %q (want tcp, cbr, or onoff)", field, ss.Kind)
			}
			if ss.OnMean, err = parseDur(field+".on_mean", c.Source.OnMean, 0); err != nil {
				return cfg, err
			}
			if ss.OffMean, err = parseDur(field+".off_mean", c.Source.OffMean, 0); err != nil {
				return cfg, err
			}
			spec.Source = ss
		}
		cfg.Conns = append(cfg.Conns, spec)
	}
	for i, e := range f.Events {
		ev := core.LinkEvent{Link: e.Link, Bandwidth: e.Bandwidth, Down: e.Down}
		if e.T == "" {
			return cfg, fmt.Errorf("scenario: events[%d]: t is required", i)
		}
		if ev.T, err = parseDur(fmt.Sprintf("events[%d].t", i), e.T, 0); err != nil {
			return cfg, err
		}
		cfg.Events = append(cfg.Events, ev)
	}
	if err := validate(&cfg); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// spec converts the JSON queue object to a validated link.QueueSpec.
func (q *Queue) spec(field string) (*link.QueueSpec, error) {
	if q == nil {
		return nil, nil
	}
	s := &link.QueueSpec{Policy: q.Policy, MinTh: q.MinTh, MaxTh: q.MaxTh, MaxP: q.MaxP, Wq: q.Wq}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", field, err)
	}
	return s, nil
}

// spec converts the JSON behavior object to a validated
// link.BehaviorSpec, loading the rate-trace file if one is named.
func (b *Behavior) spec(field string) (*link.BehaviorSpec, error) {
	if b == nil {
		return nil, nil
	}
	s := &link.BehaviorSpec{
		Loss:      b.Loss,
		GoodToBad: b.GoodToBad,
		BadToGood: b.BadToGood,
		BadLoss:   b.BadLoss,
		Reorder:   b.Reorder,
	}
	var err error
	if s.Jitter, err = parseDur(field+".jitter", b.Jitter, 0); err != nil {
		return nil, err
	}
	if b.RateTrace != "" {
		if s.Trace, err = link.LoadRateTrace(b.RateTrace); err != nil {
			return nil, fmt.Errorf("scenario: %s.rate_trace: %w", field, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", field, err)
	}
	return s, nil
}

// validate surfaces the errors core.Build would panic on: an
// unresolvable topology (disconnected graph, bad link endpoints) or a
// connection naming a host that doesn't exist.
// It resolves the topology but leaves the route compile to Build.
func validate(cfg *core.Config) error {
	topo, err := cfg.ResolveTopology()
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if len(cfg.Regions) > 0 {
		if cfg.Shards != 0 && cfg.Shards != len(cfg.Regions) {
			return fmt.Errorf("scenario: shards (%d) disagrees with the region count (%d)", cfg.Shards, len(cfg.Regions))
		}
		if _, err := topo.PartitionWith(cfg.Regions); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("scenario: negative shards")
	}
	for i := range cfg.Events {
		if err := cfg.Events[i].Validate(len(topo.Links)); err != nil {
			return fmt.Errorf("scenario: events[%d]: %w", i, err)
		}
	}
	hosts := cfg.HostCount()
	for i, c := range cfg.Conns {
		if c.SrcHost == c.DstHost {
			return fmt.Errorf("scenario: conns[%d]: src == dst", i)
		}
		if c.SrcHost < 0 || c.SrcHost >= hosts || c.DstHost < 0 || c.DstHost >= hosts {
			return fmt.Errorf("scenario: conns[%d]: host index out of range (have %d hosts)", i, hosts)
		}
		if err := c.Source.Validate(); err != nil {
			return fmt.Errorf("scenario: conns[%d].source: %w", i, err)
		}
	}
	return nil
}

// graph converts the JSON topology to a topology.Graph.
func (t *Topology) graph() (topology.Graph, error) {
	var g topology.Graph
	explicit := t.Switches != 0 || len(t.Links) > 0
	switch {
	case t.Generator != "" && explicit:
		return g, fmt.Errorf("scenario: topology generator %q excludes explicit switches/links", t.Generator)
	case t.Generator != "":
		var err error
		if g, err = topology.Generate(t.Generator, t.Size, t.M, t.Seed); err != nil {
			return g, fmt.Errorf("scenario: %w", err)
		}
	case !explicit:
		return g, fmt.Errorf("scenario: topology needs a generator or explicit switches/links")
	case t.Size != 0 || t.M != 0 || t.Seed != 0:
		return g, fmt.Errorf("scenario: topology size, m and seed are generator parameters; explicit switches/links take none")
	default:
		g = topology.Graph{Switches: t.Switches}
		for i, l := range t.Links {
			d, err := parseDur(fmt.Sprintf("topology.links[%d].delay", i), l.Delay, 0)
			if err != nil {
				return g, err
			}
			g.Links = append(g.Links, topology.LinkSpec{
				A: l.A, B: l.B,
				Bandwidth: l.Bandwidth,
				Delay:     d,
				Buffer:    l.Buffer,
			})
		}
	}
	for _, h := range t.Hosts {
		g.Hosts = append(g.Hosts, topology.HostSpec{Switch: h.Switch})
	}
	return g, nil
}

// Canonical re-encodes raw scenario bytes into canonical form. It is
// what `tahoe-sim -validate` prints and what the golden tests assert
// shipped files already are.
func Canonical(raw []byte) ([]byte, error) {
	f, err := Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func parseDur(field, s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: bad %s %q: %v", field, s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("scenario: negative %s", field)
	}
	return d, nil
}
