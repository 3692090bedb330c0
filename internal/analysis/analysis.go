// Package analysis computes the paper's observables from raw traces:
// congestion epochs and per-epoch loss patterns, window/queue
// synchronization modes, packet clustering, ACK-compression statistics,
// rapid-queue-fluctuation counts, and utilization.
package analysis

import (
	"sort"
	"time"

	"tahoedyn/internal/packet"
	"tahoedyn/internal/trace"
)

// Epoch is one congestion epoch: a burst of packet drops close together
// in time (§2.1 defines congestion epochs as the window epochs in which
// losses occur; operationally we group drops separated by less than the
// grouping gap).
type Epoch struct {
	Start, End time.Duration
	Drops      []trace.DropEvent
}

// LossByConn tallies the epoch's drops per connection.
func (e Epoch) LossByConn() map[int]int {
	m := make(map[int]int)
	for _, d := range e.Drops {
		m[d.Conn]++
	}
	return m
}

// Epochs groups drop events into congestion epochs: consecutive drops
// separated by at most gap belong to the same epoch. Drops need not be
// sorted.
func Epochs(drops []trace.DropEvent, gap time.Duration) []Epoch {
	if len(drops) == 0 {
		return nil
	}
	sorted := make([]trace.DropEvent, len(drops))
	copy(sorted, drops)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
	var out []Epoch
	cur := Epoch{Start: sorted[0].T, End: sorted[0].T, Drops: sorted[:1:1]}
	for _, d := range sorted[1:] {
		if d.T-cur.End <= gap {
			cur.Drops = append(cur.Drops, d)
			cur.End = d.T
		} else {
			out = append(out, cur)
			cur = Epoch{Start: d.T, End: d.T, Drops: []trace.DropEvent{d}}
		}
	}
	return append(out, cur)
}

// PhaseMode classifies the relative synchronization of two oscillating
// series (§4.3).
type PhaseMode int

const (
	// PhaseMixed means the correlation is too weak to call either way.
	PhaseMixed PhaseMode = iota
	// PhaseIn means the series rise and fall together (Figs. 6, 7).
	PhaseIn
	// PhaseOut means one rises while the other falls (Figs. 4, 5).
	PhaseOut
)

// String returns "in-phase", "out-of-phase" or "mixed".
func (m PhaseMode) String() string {
	switch m {
	case PhaseIn:
		return "in-phase"
	case PhaseOut:
		return "out-of-phase"
	default:
		return "mixed"
	}
}

// phaseThreshold is the minimum |correlation| to declare a mode.
const phaseThreshold = 0.2

// Phase classifies the synchronization of two series over [from, to] by
// the sign of their Pearson correlation on a grid of the given step.
func Phase(a, b *trace.Series, from, to, step time.Duration) (PhaseMode, float64) {
	r := trace.Correlate(a, b, from, to, step)
	switch {
	case r >= phaseThreshold:
		return PhaseIn, r
	case r <= -phaseThreshold:
		return PhaseOut, r
	default:
		return PhaseMixed, r
	}
}

// Utilization is busy time over elapsed time, in [0, 1].
func Utilization(busy, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(busy) / float64(elapsed)
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over
// per-connection goodputs: 1 when all shares are equal, 1/n when one
// connection takes everything. It returns 0 for an empty or all-zero
// input.
func JainIndex(goodput []int) float64 {
	if len(goodput) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, g := range goodput {
		x := float64(g)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(goodput)) * sumSq)
}

// Clustering measures how clustered a departure sequence is: the
// fraction of adjacent departure pairs that belong to the same
// connection. With k connections perfectly clustered into one run each
// per cycle this approaches 1; perfectly interleaved traffic of k
// connections gives 0. Departures should already be filtered to one
// port and, typically, to data packets.
func Clustering(deps []trace.Departure) float64 {
	if len(deps) < 2 {
		return 1
	}
	same := 0
	for i := 1; i < len(deps); i++ {
		if deps[i].Conn() == deps[i-1].Conn() {
			same++
		}
	}
	return float64(same) / float64(len(deps)-1)
}

// DeparturesFrom returns the departures at or after from. A port logs
// its departures in nondecreasing time, so they are a suffix of deps,
// which is returned without a copy.
func DeparturesFrom(deps []trace.Departure, from time.Duration) []trace.Departure {
	return deps[sort.Search(len(deps), func(i int) bool { return deps[i].T >= from }):]
}

// FilterDepartures returns the departures of the given kind.
func FilterDepartures(deps []trace.Departure, kind packet.Kind) []trace.Departure {
	var out []trace.Departure
	for _, d := range deps {
		if d.Kind() == kind {
			out = append(out, d)
		}
	}
	return out
}

// MeanRunLength returns the average length of maximal same-connection
// runs in a departure sequence — the paper's "cluster" size.
func MeanRunLength(deps []trace.Departure) float64 {
	if len(deps) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(deps); i++ {
		if deps[i].Conn() != deps[i-1].Conn() {
			runs++
		}
	}
	return float64(len(deps)) / float64(runs)
}

// CompressionStats summarizes ACK inter-arrival spacing at a data
// source. With one-way traffic every gap is at least one data
// transmission time (the ACK clock); ACK-compression shows up as a large
// fraction of gaps near the much smaller ACK transmission time.
type CompressionStats struct {
	// Gaps is the number of inter-arrival gaps measured.
	Gaps int
	// Compressed counts gaps smaller than half a data transmission time.
	Compressed int
	// MinGap is the smallest gap observed.
	MinGap time.Duration
}

// CompressedFraction is Compressed/Gaps, or 0 with no gaps.
func (c CompressionStats) CompressedFraction() float64 {
	if c.Gaps == 0 {
		return 0
	}
	return float64(c.Compressed) / float64(c.Gaps)
}

// AckCompression computes compression statistics from the arrival times
// of ACKs at a source, given the bottleneck data transmission time.
// Arrivals before from are ignored (warm-up).
func AckCompression(arrivals []time.Duration, dataTx time.Duration, from time.Duration) CompressionStats {
	var stats CompressionStats
	var prev time.Duration
	seen := false
	for _, t := range arrivals {
		if t < from {
			continue
		}
		if seen {
			gap := t - prev
			stats.Gaps++
			if gap < dataTx/2 {
				stats.Compressed++
			}
			if stats.MinGap == 0 || gap < stats.MinGap {
				stats.MinGap = gap
			}
		}
		prev = t
		seen = true
	}
	return stats
}

// rapidSwings returns the start times of monotone rises (sign=+1) or
// falls (sign=-1) that achieve at least minMag packets of change within
// at most window. A monotone run may begin with a slow (even flat)
// stretch; the swing counts if any window-bounded subsegment of the run
// reaches the magnitude. Each run contributes at most one swing.
func rapidSwings(q *trace.Series, from, to, window time.Duration, minMag float64, sign int) []time.Duration {
	pts := q.Points
	var out []time.Duration
	i := 0
	for i < len(pts) {
		p := pts[i]
		if p.T < from {
			i++
			continue
		}
		if p.T > to {
			break
		}
		// Extend the monotone run [i, j].
		j := i
		for j+1 < len(pts) && pts[j+1].T <= to &&
			float64(sign)*(pts[j+1].V-pts[j].V) >= 0 {
			j++
		}
		if j > i {
			// Two-pointer scan for a fast subsegment.
			lo := i
			for hi := i + 1; hi <= j; hi++ {
				for pts[hi].T-pts[lo].T > window {
					lo++
				}
				if float64(sign)*(pts[hi].V-pts[lo].V) >= minMag {
					out = append(out, pts[lo].T)
					break
				}
			}
		}
		if j == i {
			i++
		} else {
			i = j
		}
	}
	return out
}

// CoupledSwings measures the §4.2 chronology signature: the fraction of
// rapid rises in series a that coincide (within the coupling window)
// with a rapid fall in series b. In the fixed-window two-way system a
// cluster of compressed ACKs leaving one queue is exactly the burst of
// data hitting the other, so the coupling is near-perfect.
func CoupledSwings(a, b *trace.Series, from, to, swingWindow, couple time.Duration, minMag float64) float64 {
	rises := rapidSwings(a, from, to, swingWindow, minMag, +1)
	falls := rapidSwings(b, from, to, swingWindow, minMag, -1)
	if len(rises) == 0 {
		return 0
	}
	matched := 0
	fi := 0
	for _, r := range rises {
		for fi < len(falls) && falls[fi] < r-couple {
			fi++
		}
		if fi < len(falls) && falls[fi] <= r+couple {
			matched++
		}
	}
	return float64(matched) / float64(len(rises))
}

// RapidRises counts queue-length increases of at least minRise packets
// completing within at most window — the paper's "fluctuations … on a
// time scale smaller than that of a single data packet transmission
// time" (§3.2). Each monotone rise is counted once.
func RapidRises(q *trace.Series, from, to, window time.Duration, minRise float64) int {
	return len(rapidSwings(q, from, to, window, minRise, +1))
}
