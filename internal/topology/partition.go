package topology

import (
	"fmt"
	"time"
)

// Partition divides a compiled graph's switches into K regions for
// sharded execution (internal/shard). Hosts are not listed: a host
// always belongs to its switch's region, so access links never cross a
// region boundary and only switch-switch links can be cut.
type Partition struct {
	// K is the number of regions, 1 <= K <= Switches.
	K int
	// Region[s] is the region index of switch s.
	Region []int
	// CutLinks lists the links whose endpoints lie in different regions,
	// in ascending link-index order.
	CutLinks []int
	// MinCutDelay is the smallest propagation delay among the cut links —
	// the conservative lookahead bound: no region's events can affect
	// another region sooner than this. It is 0 when there are no cut
	// links (K == 1, or regions that happen to be disconnected), in which
	// case regions never interact and the lookahead is unbounded.
	MinCutDelay time.Duration
}

// Partition computes a deterministic K-way partition of the switches:
// switches are laid out in BFS order (started from the lowest-index
// unvisited switch, neighbors explored in ascending link-index order),
// cut into K contiguous blocks of near-equal size, and then refined by
// greedy single-switch moves that strictly reduce the number of cut
// links while keeping block sizes within one of each other. Every tie —
// BFS frontier order, move scan order, destination choice — is broken
// by the lowest index, so the same graph and K always produce the same
// partition. K is clamped to [1, Switches].
//
// Partitioning fails only if a cut link has no propagation delay: a
// zero-delay cut would leave the conservative synchronization scheme no
// lookahead. Use fewer shards, explicit regions, or give the link a
// delay.
func (c *Skeleton) Partition(k int) (*Partition, error) {
	if k < 1 {
		k = 1
	}
	if k > c.Switches {
		k = c.Switches
	}
	region := make([]int, c.Switches)
	if k == 1 {
		return c.finishPartition(region, 1)
	}

	// BFS layout. Components are visited lowest-index first; within a
	// component the frontier is a FIFO queue and neighbors are pushed in
	// ascending link-index order (the CSR half-edge order).
	order := make([]int, 0, c.Switches)
	seen := make([]bool, c.Switches)
	queue := make([]int, 0, c.Switches)
	for start := 0; start < c.Switches; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for i := c.adjOff[u]; i < c.adjOff[u+1]; i++ {
				if v := int(c.adjSw[i]); !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}

	// Contiguous blocks of near-equal size: the first Switches%K blocks
	// take one extra switch.
	size := make([]int, k)
	base, extra := c.Switches/k, c.Switches%k
	i := 0
	for r := 0; r < k; r++ {
		n := base
		if r < extra {
			n++
		}
		for j := 0; j < n; j++ {
			region[order[i]] = r
			i++
		}
		size[r] = n
	}

	// Refinement: move one boundary switch at a time when that strictly
	// reduces the cut, until a pass makes no move (bounded by a pass
	// limit for safety). A move must keep every region non-empty and the
	// sizes within the original base..base+1 band.
	lo, hi := base, base
	if extra > 0 {
		hi++
	}
	for pass := 0; pass < 8; pass++ {
		moved := false
		for s := 0; s < c.Switches; s++ {
			from := region[s]
			if size[from] <= lo || size[from] <= 1 {
				continue
			}
			// Count s's links into each region; the cut delta for moving
			// s from `from` to `to` is deg[from] - deg[to].
			bestTo, bestDelta := -1, 0
			for i := c.adjOff[s]; i < c.adjOff[s+1]; i++ {
				to := region[c.adjSw[i]]
				if to == from || size[to] >= hi {
					continue
				}
				delta := c.cutDelta(region, s, to)
				if delta < bestDelta || (delta == bestDelta && bestTo >= 0 && to < bestTo) {
					bestTo, bestDelta = to, delta
				}
			}
			if bestTo >= 0 && bestDelta < 0 {
				size[from]--
				size[bestTo]++
				region[s] = bestTo
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return c.finishPartition(region, k)
}

// cutDelta returns the change in the number of cut links if switch s
// moved to region `to`.
func (c *Skeleton) cutDelta(region []int, s, to int) int {
	from := region[s]
	delta := 0
	for i := c.adjOff[s]; i < c.adjOff[s+1]; i++ {
		switch region[c.adjSw[i]] {
		case from:
			delta++ // was internal, becomes cut
		case to:
			delta-- // was cut, becomes internal
		}
	}
	return delta
}

// PartitionWith builds a Partition from an explicit region list (the
// scenario-file `regions` override): regions[r] lists the switches of
// region r, and together the lists must cover every switch exactly
// once. The same zero-delay-cut restriction as Partition applies.
func (c *Skeleton) PartitionWith(regions [][]int) (*Partition, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("topology: empty region list")
	}
	region := make([]int, c.Switches)
	for i := range region {
		region[i] = -1
	}
	for r, list := range regions {
		if len(list) == 0 {
			return nil, fmt.Errorf("topology: region %d is empty", r)
		}
		for _, s := range list {
			if s < 0 || s >= c.Switches {
				return nil, fmt.Errorf("topology: region %d names switch %d, out of range [0,%d)", r, s, c.Switches)
			}
			if region[s] >= 0 {
				return nil, fmt.Errorf("topology: switch %d appears in regions %d and %d", s, region[s], r)
			}
			region[s] = r
		}
	}
	for s, r := range region {
		if r < 0 {
			return nil, fmt.Errorf("topology: switch %d is in no region", s)
		}
	}
	return c.finishPartition(region, len(regions))
}

// finishPartition derives the cut-edge metadata from a region
// assignment and validates the lookahead bound.
func (c *Skeleton) finishPartition(region []int, k int) (*Partition, error) {
	p := &Partition{K: k, Region: region}
	for li, l := range c.Links {
		if region[l.A] == region[l.B] {
			continue
		}
		if l.Delay <= 0 {
			return nil, fmt.Errorf(
				"topology: cut link %d (switch %d–switch %d) has zero propagation delay: sharding needs positive lookahead on every cut link (use fewer shards, explicit regions, or a link delay)",
				li, l.A, l.B)
		}
		if p.MinCutDelay == 0 || l.Delay < p.MinCutDelay {
			p.MinCutDelay = l.Delay
		}
		p.CutLinks = append(p.CutLinks, li)
	}
	return p, nil
}
