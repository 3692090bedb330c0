package topology

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// TestRowWidth is the width rule on its own: the slot width is the bit
// length of the widest degree + 1, and the addresses, up to the host
// count, must fit beside it in 32 bits. Host counts sit at 2^m − 1, 2^m
// and 2^m + 1, degrees on both sides of a width step (62 → 6 bits, 63 →
// 7; 126 → 7, 127 → 8), and the refusals are the first counts past 32.
func TestRowWidth(t *testing.T) {
	for _, tc := range []struct {
		hosts, degree int
		w             uint // 0: refused
	}{
		{2047, 62, 6}, {2047, 63, 7}, {2048, 62, 6}, {2048, 63, 7}, {2049, 62, 6}, {2049, 63, 7},
		{1, 0, 1}, {1, 1, 2}, {2, 2, 2}, {3, 3, 3},
		{1<<25 - 1, 126, 7}, {1 << 25, 126, 0}, {1<<25 + 1, 126, 0},
		{1<<25 - 1, 127, 0}, {1 << 25, 62, 6}, {1<<25 + 1, 62, 6},
		{1<<26 - 1, 62, 6}, {1 << 26, 62, 0}, {1<<26 + 1, 62, 0}, {1<<26 - 1, 63, 0},
		{MaxHosts, 0, 1}, {MaxHosts, 1, 0},
	} {
		w, err := rowWidth(tc.hosts, 17, tc.degree)
		switch {
		case tc.w == 0 && err == nil:
			t.Errorf("%d hosts, degree %d: width %d, want a refusal", tc.hosts, tc.degree, w)
		case tc.w == 0:
			for _, want := range []string{fmt.Sprintf("%d hosts", tc.hosts), fmt.Sprintf("switch 17's %d links", tc.degree)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%d hosts, degree %d: error %q does not say %q", tc.hosts, tc.degree, err, want)
				}
			}
		case err != nil:
			t.Errorf("%d hosts, degree %d: %v, want width %d", tc.hosts, tc.degree, err, tc.w)
		case w != tc.w:
			t.Errorf("%d hosts, degree %d: width %d, want %d", tc.hosts, tc.degree, w, tc.w)
		}
	}
}

// hubGraph is a hub linked to every switch of a ring of n: the hub has
// degree n, each ring switch 3, and no link is a bridge.
func hubGraph(n int) Graph {
	g := Graph{Switches: n + 1}
	for i := 1; i <= n; i++ {
		g.Links = append(g.Links, LinkSpec{A: 0, B: i})
	}
	for i := 1; i <= n; i++ {
		g.Links = append(g.Links, LinkSpec{A: i, B: i%n + 1})
	}
	return g
}

// TestHubFillsItsSlotField compiles a hub of degree 126, whose highest
// slot's code, 127, takes every bit of its 7-bit field, and holds it to
// the dense reference as compiled, with the hub's highest-slot link
// down, and with it restored.
func TestHubFillsItsSlotField(t *testing.T) {
	const n = 126
	g := hubGraph(n)
	c := mustCompile(t, g, eqDefaults())
	checkAgainstRef(t, "compiled", c, refTable(t, c))
	top := n - 1 // the hub's link n-1 is its last slot
	w0 := c.Weight(top)
	if _, err := c.ApplyLinkChange(top, LinkDown); err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, "hub's last link down", c, refTable(t, c))
	if _, err := c.ApplyLinkChange(top, w0); err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, "hub's last link restored", c, refTable(t, c))

	if want := uint(bits.Len(n + 1)); c.w != want {
		t.Fatalf("width %d, want %d", c.w, want)
	}
	full := int32(1)<<c.w - 3 // the slot whose code is all ones
	if c.Degree(0) != int(full)+1 {
		t.Fatalf("the hub has %d slots, want %d", c.Degree(0), full+1)
	}
	found := false
	for r, i := c.Row(0), 0; i < r.Len(); i++ {
		found = found || r.Slot(i) == full
	}
	if !found {
		t.Fatalf("no interval of the hub leaves by slot %d, whose code fills the %d-bit field", full, c.w)
	}
}

// TestRowLookup holds Row.Lookup to a scan of the intervals at several
// widths, addresses in range and out of it.
func TestRowLookup(t *testing.T) {
	ends, slots := []int32{3, 4, 9, 20}, []int32{SlotLocal, 5, SlotNone, 0}
	for _, w := range []uint{3, 4, 11} {
		r := Row{W: w}
		for i := range ends {
			r.Words = append(r.Words, pack(ends[i], slots[i], w))
		}
		for a := -3; a < 25; a++ {
			want := SlotNone
			for i := range ends {
				if a >= 0 && int32(a) < ends[i] {
					want = slots[i]
					break
				}
			}
			if got := r.Lookup(a); got != want {
				t.Fatalf("width %d: Lookup(%d) = %d, want %d", w, a, got, want)
			}
		}
		for _, a := range []int{1 << 31, 1<<31 + 2, -1 << 40, 1 << 40} {
			if got := r.Lookup(a); got != SlotNone {
				t.Fatalf("width %d: Lookup(%d) = %d, want SlotNone", w, a, got)
			}
		}
	}
}
