package link

import (
	"testing"
	"testing/quick"

	"tahoedyn/internal/packet"
)

func fifoOf(n uint64) *fifo {
	q := &fifo{}
	for i := uint64(0); i < n; i++ {
		q.push(&packet.Packet{ID: i})
	}
	return q
}

func TestFIFOOrder(t *testing.T) {
	q := fifoOf(5)
	if q.len() != 5 {
		t.Fatalf("len = %d, want 5", q.len())
	}
	for i := uint64(0); i < 5; i++ {
		p := q.pop()
		if p == nil || p.ID != i {
			t.Fatalf("pop %d returned %v", i, p)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop of empty queue returned a packet")
	}
}

func TestRemoveAt(t *testing.T) {
	q := fifoOf(5)
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
	q := fifoOf(2)
	if p := q.removeAt(0); p == nil || p.ID != 0 {
		t.Fatalf("removeAt(0) = %v", p)
	}
	if q.removeAt(5) != nil || q.removeAt(-1) != nil {
		t.Fatal("out-of-range removeAt returned a packet")
	}
	if q.len() != 1 {
		t.Fatalf("len = %d, want 1", q.len())
	}
}

func TestRemoveAtAfterCompaction(t *testing.T) {
	q := fifoOf(200)
	for i := 0; i < 150; i++ { // force the compaction path
		q.pop()
	}
	if len(q.items) == 200 {
		t.Fatal("150 pops of 200 did not compact the dead prefix")
	}
	if p := q.removeAt(10); p == nil || p.ID != 160 {
		t.Fatalf("removeAt(10) = %v, want ID 160", p)
	}
	if got := q.pop().ID; got != 150 {
		t.Fatalf("head = %d, want 150", got)
	}
}

// Property: under any sequence of pushes, pops, and mid-queue removals
// (long enough to cross the compaction threshold), the buffer agrees
// with a plain slice model.
func TestFIFOInvariantsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := &fifo{}
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
