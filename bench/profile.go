package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of a runtime/pprof CPU profile
// (gzip-compressed profile.proto) to bucket its samples by simulator
// layer, with the standard library only.

// pbField is one decoded protobuf field: varint fields carry v,
// length-delimited fields carry b.
type pbField struct {
	num int
	v   uint64
	b   []byte
}

// pbFields splits a protobuf message into its fields. Fixed-width
// fields are skipped; profile.proto has none the bucketing reads.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbPacked reads a repeated varint field that may arrive packed (one
// length-delimited blob) or as a single unpacked value.
func pbPacked(f pbField, dst []uint64) []uint64 {
	if f.b == nil {
		return append(dst, f.v)
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

// profSample is one stack, leaf first, as function names, its weight,
// and the value of its "span" label ("" when it has none).
type profSample struct {
	stack  []string
	weight int64
	span   string
}

// decodeProfile returns the samples of one CPU profile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs   []uint64
		val    int64
		labels [][2]uint64 // (key, str) string-table indices
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs = pbPacked(sf, s.locs)
				case 2:
					vals = pbPacked(sf, vals)
				case 3: // Label
					ls, err := pbFields(sf.b)
					if err != nil {
						return nil, err
					}
					var kv [2]uint64
					for _, l := range ls {
						if l.num == 1 || l.num == 2 {
							kv[l.num-1] = l.v
						}
					}
					s.labels = append(s.labels, kv)
				}
			}
			if len(vals) > 0 {
				s.val = int64(vals[len(vals)-1]) // cpu nanoseconds
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line, innermost inlined call first
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	out := make([]profSample, 0, len(samples))
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		ps := profSample{weight: s.val}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				ps.span = str(kv[1])
			}
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// shareBuckets are the rows of the steady-state share table, in print
// order. Every sample lands in exactly one, so the shares sum to 100.
var shareBuckets = []string{"sim", "link", "tcp", "node", "packet", "trace", "obs", "tstore", "shard", "core",
	"runtime.gc", "runtime.malloc", "other"}

const layerPrefix = "tahoedyn/internal/"

// bucketOf assigns one stack to a layer. Collector work (background
// mark and sweep, assists) is runtime.gc wherever it was triggered;
// other allocator work is runtime.malloc; everything else belongs to
// the innermost simulator package on the stack, so a layer is charged
// for the runtime helpers it calls (memmove, map access, write
// barriers). Stacks with no simulator frame are "other".
func bucketOf(stack []string) string {
	malloc := false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.gcDrain"), strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.gcMarkTermination"):
			return "runtime.gc"
		case fn == "runtime.mallocgc":
			malloc = true
		}
	}
	if malloc {
		return "runtime.malloc"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, layerPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if pkg == "queue" {
				pkg = "link" // the FIFO is the port's buffer
			}
			for _, b := range shareBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

// steadyShares buckets the profile's steady-span samples and returns
// each bucket's percentage of their total, plus the weight seen.
func steadyShares(profile []byte) (map[string]float64, int64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	weight := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.span == steadyLabel {
			weight[bucketOf(s.stack)] += s.weight
			total += s.weight
		}
	}
	if total == 0 { // spans too short for a single sample: nothing to attribute
		return map[string]float64{"other": 100}, 0, nil
	}
	shares := map[string]float64{}
	for _, b := range shareBuckets {
		shares[b] = 100 * float64(weight[b]) / float64(total)
	}
	return shares, total, nil
}
