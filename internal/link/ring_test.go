package link

import (
	"testing"
	"testing/quick"

	"tahoedyn/internal/packet"
)

func ringOf(capacity int, n uint64) *ring {
	q := newRing(capacity)
	for i := uint64(0); i < n; i++ {
		q.push(&packet.Packet{ID: i})
	}
	return &q
}

func TestFIFOOrder(t *testing.T) {
	for _, capacity := range []int{0, 5} {
		q := ringOf(capacity, 5)
		if q.len() != 5 {
			t.Fatalf("capacity %d: len = %d, want 5", capacity, q.len())
		}
		for i := uint64(0); i < 5; i++ {
			p := q.pop()
			if p == nil || p.ID != i {
				t.Fatalf("capacity %d: pop %d returned %v", capacity, i, p)
			}
		}
		if q.pop() != nil {
			t.Fatalf("capacity %d: pop of empty queue returned a packet", capacity)
		}
	}
}

func TestRemoveAt(t *testing.T) {
	q := ringOf(5, 5)
	p := q.removeAt(2)
	if p == nil || p.ID != 2 {
		t.Fatalf("removeAt(2) = %v", p)
	}
	if q.len() != 4 {
		t.Fatalf("len = %d, want 4", q.len())
	}
	for _, id := range []uint64{0, 1, 3, 4} {
		if got := q.pop().ID; got != id {
			t.Fatalf("pop = %d, want %d", got, id)
		}
	}
}

func TestRemoveAtHeadAndBounds(t *testing.T) {
	q := ringOf(2, 2)
	if p := q.removeAt(0); p == nil || p.ID != 0 {
		t.Fatalf("removeAt(0) = %v", p)
	}
	if q.removeAt(5) != nil || q.removeAt(-1) != nil || q.removeAt(1) != nil {
		t.Fatal("out-of-range removeAt returned a packet")
	}
	if q.len() != 1 {
		t.Fatalf("len = %d, want 1", q.len())
	}
}

// A bounded ring whose contents wrap past the end of its array removes
// across the seam and never reallocates; an unbounded one that fills
// while wrapped grows with its order intact.
func TestRemoveAtAfterWrap(t *testing.T) {
	q := ringOf(8, 8)
	for i := 0; i < 6; i++ {
		q.pop()
	}
	for i := uint64(8); i < 13; i++ { // 6..12 now straddle the seam
		q.push(&packet.Packet{ID: i})
	}
	if len(q.buf) != 8 || q.head != 6 {
		t.Fatalf("array %d slots, head %d: want 8 and 6", len(q.buf), q.head)
	}
	if p := q.removeAt(3); p == nil || p.ID != 9 {
		t.Fatalf("removeAt(3) = %v, want ID 9", p)
	}
	for _, id := range []uint64{6, 7, 8, 10, 11, 12} {
		if got := q.pop().ID; got != id {
			t.Fatalf("pop = %d, want %d", got, id)
		}
	}

	u := ringOf(0, 4)
	u.pop()
	u.pop()
	for i := uint64(4); i < 9; i++ { // the fifth push finds it full and wrapped
		u.push(&packet.Packet{ID: i})
	}
	for id := uint64(2); id < 9; id++ {
		if got := u.pop().ID; got != id {
			t.Fatalf("unbounded pop = %d, want %d", got, id)
		}
	}
}

// Property: under any sequence of pushes, pops, and mid-queue removals
// (long enough to wrap the array many times), the buffer agrees with a
// plain slice model, at any reserved capacity.
func TestFIFOInvariantsProperty(t *testing.T) {
	f := func(capacity uint8, ops []uint8) bool {
		q := newRing(int(capacity%24) - 2)
		var model []*packet.Packet
		id := uint64(0)
		for round := 0; round < 8; round++ {
			for _, op := range ops {
				switch {
				case op < 160:
					p := &packet.Packet{ID: id}
					id++
					q.push(p)
					model = append(model, p)
				case op < 230:
					got := q.pop()
					if len(model) == 0 {
						if got != nil {
							return false
						}
						break
					}
					if got != model[0] {
						return false
					}
					model = model[1:]
				default:
					i := int(op) % (len(model) + 1)
					got := q.removeAt(i)
					if i == len(model) {
						if got != nil {
							return false
						}
						break
					}
					if got != model[i] {
						return false
					}
					model = append(model[:i:i], model[i+1:]...)
				}
				if q.len() != len(model) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
