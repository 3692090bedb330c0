package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Generate builds a generator's graph from the parameters the scenario
// "generator" key and the -topology flag share, or says why it will not:
// "dumbbell" takes no size; "chain" needs size >= 2 switches,
// "parking-lot" size >= 1 hops, "ba" size >= 2 switches with
// 1 <= m < size links per joining switch, and "waxman" size >= 2
// switches. Only "ba" takes m, and only "ba" and "waxman" a seed. A
// graph that would not fit CheckSize is refused before the generator
// allocates in proportion to size; Waxman's link count is random, so its
// backbone is counted here and the rest when the graph is resolved.
func Generate(name string, size, m int, seed int64) (Graph, error) {
	least, switches, links := 2, size, size-1 // chain, ba, waxman
	switch name {
	case "dumbbell":
		least, switches, links = 0, 2, 1
	case "parking-lot":
		least, switches, links = 1, size+1, size
	case "ba":
		links = m * (size - m)
	case "chain", "waxman":
	default:
		return Graph{}, fmt.Errorf("topology: unknown generator %q (want dumbbell, chain, parking-lot, ba, or waxman)", name)
	}
	switch {
	case name == "dumbbell" && size != 0:
		return Graph{}, fmt.Errorf("topology: dumbbell takes no size")
	case size < least:
		return Graph{}, fmt.Errorf("topology: %s needs size >= %d", name, least)
	case name == "ba" && (m < 1 || m >= size):
		return Graph{}, fmt.Errorf("topology: ba needs 1 <= m < size, got m=%d", m)
	case m != 0 && name != "ba":
		return Graph{}, fmt.Errorf("topology: m is only valid for the ba generator (got %q)", name)
	case seed != 0 && name != "ba" && name != "waxman":
		return Graph{}, fmt.Errorf("topology: seed is only valid for the ba and waxman generators (got %q)", name)
	}
	if err := CheckSize(switches, links, switches); err != nil { // one host per switch
		return Graph{}, err
	}
	switch name {
	case "dumbbell":
		return Dumbbell(), nil
	case "chain":
		return Chain(size), nil
	case "parking-lot":
		return ParkingLot(size), nil
	case "ba":
		return BarabasiAlbert(size, m, seed), nil
	}
	return Waxman(size, seed), nil
}

// BarabasiAlbert returns an n-switch scale-free graph grown by
// preferential attachment: switches join one at a time and link to m
// distinct earlier switches chosen with probability proportional to
// current degree (sampling uniformly from the endpoint multiset).
// Switches 0..m-1 seed the graph and switch m attaches to all of them,
// so the result is always connected. The construction is a pure
// function of (n, m, seed): the same arguments always yield the same
// Graph, link for link. n is clamped to at least 2 and m to [1, n-1].
// All link parameters inherit the scenario defaults; hosts follow the
// one-per-switch convention unless the caller places them explicitly
// (recommended beyond a few thousand switches — routes are computed
// toward every host).
func BarabasiAlbert(n, m int, seed int64) Graph {
	if n < 2 {
		n = 2
	}
	if m < 1 {
		m = 1
	}
	if m >= n {
		m = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := Graph{Switches: n, Links: make([]LinkSpec, 0, m*(n-m))}
	// ends is the endpoint multiset of all links so far; sampling it
	// uniformly is degree-proportional sampling.
	ends := make([]int32, 0, 2*m*(n-m))
	addLink := func(a, b int) {
		g.Links = append(g.Links, LinkSpec{A: a, B: b})
		ends = append(ends, int32(a), int32(b))
	}
	for b := 0; b < m; b++ {
		addLink(b, m)
	}
	picked := make(map[int]bool, m)
	targets := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		clear(picked)
		targets = targets[:0]
		// ends holds only switches < v (links are added after selection),
		// and more than m distinct ones, so the rejection loop terminates
		// and never picks v itself.
		for len(targets) < m {
			t := int(ends[rng.Intn(len(ends))])
			if picked[t] {
				continue
			}
			picked[t] = true
			targets = append(targets, t)
		}
		for _, t := range targets {
			addLink(t, v)
		}
	}
	return g
}

// Waxman model constants: link probability alpha·exp(−d/(beta·r)) for
// switch pairs within cutoff radius r, which is sized so a switch sees
// about waxmanDeg candidate neighbors. The resulting graphs average
// roughly degree 4 (2 from the connectivity backbone, ~2 probabilistic).
const (
	waxmanAlpha = 0.9
	waxmanBeta  = 0.5
	waxmanDeg   = 8.0
)

// Waxman returns an n-switch random geometric graph after Waxman:
// switches are placed uniformly in the unit square and pairs within a
// cutoff radius r are linked with probability alpha·exp(−d/(beta·r)),
// where d is their Euclidean distance. In addition, every switch links
// to its (approximate) nearest earlier switch, which guarantees the
// graph is connected without disturbing the RNG draw sequence. The
// cutoff keeps the expected candidate count per switch constant, so
// generation is O(n) with n switches and the average degree does not
// grow with n. Like BarabasiAlbert, the result is a pure function of
// (n, seed). n is clamped to at least 2.
func Waxman(n int, seed int64) Graph {
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r := math.Sqrt(waxmanDeg / (math.Pi * float64(n)))

	// Grid buckets of side r: a switch's in-radius candidates all lie in
	// its 3×3 cell neighborhood.
	cells := int(1/r) + 1
	cellOf := func(i int) (int, int) {
		cx, cy := int(xs[i]/r), int(ys[i]/r)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	grid := make([][]int32, cells*cells)

	dist := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return math.Hypot(dx, dy)
	}

	g := Graph{Switches: n}
	var cand []int32
	for v := 0; v < n; v++ {
		cx, cy := cellOf(v)
		// In-radius earlier switches from the 3×3 neighborhood, in
		// ascending index order (cells are scanned in fixed order and each
		// bucket is insertion-ordered, so a sort is only needed to merge
		// buckets; indices within a bucket are already ascending).
		cand = cand[:0]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				for _, u := range grid[ny*cells+nx] {
					if dist(v, int(u)) <= r {
						cand = append(cand, u)
					}
				}
			}
		}
		sortInt32(cand)

		// Connectivity backbone: link to the nearest earlier switch
		// (expanding the cell search until one is found; ties and the
		// approximation error of the ring cutoff resolve to the lowest
		// index). No RNG draws — the backbone is position-determined.
		backbone := -1
		if v > 0 {
			backbone = nearestEarlier(v, xs, ys, grid, cells, r)
			g.Links = append(g.Links, LinkSpec{A: backbone, B: v})
		}

		// Probabilistic Waxman links: exactly one draw per in-radius
		// candidate, in ascending index order, so the draw sequence is
		// independent of the backbone choice.
		for _, u := range cand {
			p := waxmanAlpha * math.Exp(-dist(v, int(u))/(waxmanBeta*r))
			if rng.Float64() < p && int(u) != backbone {
				g.Links = append(g.Links, LinkSpec{A: int(u), B: v})
			}
		}

		grid[cy*cells+cx] = append(grid[cy*cells+cx], int32(v))
	}
	return g
}

// nearestEarlier returns the switch u < v minimizing Euclidean distance
// to v among the cells within an expanding ring search (lowest index on
// ties). The first non-empty ring plus one more ring is scanned, which
// bounds the error of the grid approximation; any deterministic earlier
// switch keeps the graph connected.
func nearestEarlier(v int, xs, ys []float64, grid [][]int32, cells int, r float64) int {
	cx, cy := int(xs[v]/r), int(ys[v]/r)
	if cx >= cells {
		cx = cells - 1
	}
	if cy >= cells {
		cy = cells - 1
	}
	best, bestD := -1, math.Inf(1)
	scanRing := func(k int) {
		for dy := -k; dy <= k; dy++ {
			for dx := -k; dx <= k; dx++ {
				if dx > -k && dx < k && dy > -k && dy < k {
					continue // interior already scanned
				}
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				for _, u := range grid[ny*cells+nx] {
					dxu, dyu := xs[v]-xs[u], ys[v]-ys[u]
					if d := math.Hypot(dxu, dyu); d < bestD {
						best, bestD = int(u), d
					}
				}
			}
		}
	}
	for k := 0; k < 2*cells; k++ {
		scanRing(k)
		if best >= 0 {
			scanRing(k + 1)
			return best
		}
	}
	return best
}

// sortInt32 is an insertion sort: candidate lists are short (a 3×3 cell
// neighborhood) and mostly sorted (per-cell ascending).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
