package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"tahoedyn/internal/core"
	"tahoedyn/internal/packet"
)

// digest is the simulated-statistics fingerprint of one run. Every
// field is deterministic for a given scenario, so two builds of the
// simulator agree on it exactly or one of them changed the physics.
// Per-connection and per-drop detail is folded into hashes so the
// golden files stay small at 10⁵ connections.
type digest struct {
	Events      uint64 `json:"events"`
	Delivered   uint64 `json:"delivered"`
	Goodput     uint64 `json:"goodput"`
	Retransmits uint64 `json:"retransmits"`
	Timeouts    uint64 `json:"timeouts"`
	Drops       int    `json:"drops"`
	// Conns hashes per-connection (delivered, goodput, retransmits,
	// timeouts); DropList hashes the (time, conn, seq) drop sequence;
	// Util hashes the TrunkUtil bit patterns.
	Conns    string `json:"conns"`
	DropList string `json:"drop_list"`
	Util     string `json:"util"`
	// Analysis and Store carry the verdicts of the post-run passes on
	// the workloads that have them.
	Analysis string `json:"analysis,omitempty"`
	Store    string `json:"store,omitempty"`
}

// hasher folds 64-bit words into an FNV-1a sum.
type hasher struct{ hash.Hash64 }

func newHasher() hasher { return hasher{fnv.New64a()} }

func (h hasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:]) // hash.Hash never returns an error
}

func (h hasher) hex() string { return fmt.Sprintf("%016x", h.Sum64()) }

func digestOf(res *core.Result) digest {
	d := digest{Events: res.Events, Drops: len(res.Drops)}
	conns, drops, util := newHasher(), newHasher(), newHasher()
	for k := range res.Delivered {
		ss := res.SenderStats[k]
		d.Delivered += uint64(res.Delivered[k])
		d.Goodput += uint64(res.Goodput[k])
		d.Retransmits += ss.Retransmits
		d.Timeouts += ss.Timeouts
		conns.u64(uint64(res.Delivered[k]))
		conns.u64(uint64(res.Goodput[k]))
		conns.u64(ss.Retransmits)
		conns.u64(ss.Timeouts)
	}
	for _, dr := range res.Drops {
		drops.u64(uint64(dr.T))
		drops.u64(uint64(dr.Conn))
		drops.u64(uint64(dr.Seq))
	}
	for _, u := range res.TrunkUtil {
		util.u64(math.Float64bits(u[0]))
		util.u64(math.Float64bits(u[1]))
	}
	d.Conns, d.DropList, d.Util = conns.hex(), drops.hex(), util.hex()
	return d
}

// conservation checks packet conservation from the final counters: per
// connection, what the sender put on the wire is what the receiver saw
// plus what the network dropped plus what is still in flight, for data
// and for ACKs. With every port's drops logged and no stochastic line
// loss hidden from the log, in-flight is bounded by the advertised
// window; on gated runs (no drop log) only the sign can be checked.
func conservation(res *core.Result, spec runSpec) error {
	n := len(res.SenderStats)
	var dataDrops, ackDrops []uint64
	if !spec.gate {
		dataDrops, ackDrops = make([]uint64, n), make([]uint64, n)
		for _, dr := range res.Drops {
			if dr.Kind == packet.Data {
				dataDrops[dr.Conn-1]++
			} else {
				ackDrops[dr.Conn-1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		ss, rs := res.SenderStats[k], res.ReceiverStats[k]
		seen := rs.DataReceived + rs.DupData
		acked := ss.AcksReceived
		if dataDrops != nil {
			seen += dataDrops[k]
			acked += ackDrops[k]
		}
		wnd := uint64(res.Cfg.Conns[k].MaxWnd)
		if seen > ss.DataSent || acked > rs.AcksSent {
			return fmt.Errorf("conservation: conn %d received more than was sent (data %d/%d, acks %d/%d)",
				k+1, seen, ss.DataSent, acked, rs.AcksSent)
		}
		if dataDrops != nil && (ss.DataSent-seen > wnd || rs.AcksSent-acked > wnd) {
			return fmt.Errorf("conservation: conn %d has more than a window unaccounted for (data %d, acks %d, wnd %d)",
				k+1, ss.DataSent-seen, rs.AcksSent-acked, wnd)
		}
		if uint64(res.Delivered[k]) > rs.DataReceived || res.Goodput[k] > res.Delivered[k] {
			return fmt.Errorf("conservation: conn %d delivered %d of %d received (goodput %d)",
				k+1, res.Delivered[k], rs.DataReceived, res.Goodput[k])
		}
	}
	return nil
}

// goldenPath names the committed digest file of (workload, seed).
func goldenPath(workload string, seed int64) string {
	return filepath.Join("golden", fmt.Sprintf("%s.seed%d.json", workload, seed))
}

// loadGolden returns the committed per-run digests of (workload, seed),
// or nil when that seed has none and repetitions are compared with each
// other instead.
func loadGolden(workload string, seed int64) ([]digest, error) {
	b, err := os.ReadFile(goldenPath(workload, seed))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ds []digest
	if err := json.Unmarshal(b, &ds); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload, seed), err)
	}
	return ds, nil
}

func writeGolden(workload string, seed int64, ds []digest) error {
	b, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	p := goldenPath(workload, seed)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, append(b, '\n'), 0o644)
}
