package packet

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func queueOf(n uint64) *Queue {
	var q Queue
	for i := uint64(0); i < n; i++ {
		q.Push(&Packet{ID: i})
	}
	return &q
}

// drain pops q empty and returns the IDs in the order served.
func drain(q *Queue) []uint64 {
	var ids []uint64
	for p := q.Pop(); p != nil; p = q.Pop() {
		ids = append(ids, p.ID)
	}
	return ids
}

func sameIDs(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestQueueFIFOOrder(t *testing.T) {
	q := queueOf(5)
	if q.Len() != 5 {
		t.Fatalf("len = %d, want 5", q.Len())
	}
	if got := drain(q); !sameIDs(got, []uint64{0, 1, 2, 3, 4}) {
		t.Fatalf("served %v, want 0..4", got)
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("an emptied queue still serves packets")
	}
	// An emptied queue takes new packets as a fresh one does.
	q.Push(&Packet{ID: 9})
	if got := drain(q); !sameIDs(got, []uint64{9}) {
		t.Fatalf("after refill served %v, want [9]", got)
	}
}

func TestQueueRemoveAt(t *testing.T) {
	q := queueOf(5)
	p := q.RemoveAt(2)
	if p == nil || p.ID != 2 {
		t.Fatalf("RemoveAt(2) = %v", p)
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d, want 4", q.Len())
	}
	if got := drain(q); !sameIDs(got, []uint64{0, 1, 3, 4}) {
		t.Fatalf("served %v, want [0 1 3 4]", got)
	}
}

func TestQueueRemoveAtHeadAndBounds(t *testing.T) {
	q := queueOf(2)
	if p := q.RemoveAt(0); p == nil || p.ID != 0 {
		t.Fatalf("RemoveAt(0) = %v", p)
	}
	if q.RemoveAt(5) != nil || q.RemoveAt(-1) != nil || q.RemoveAt(1) != nil {
		t.Fatal("out-of-range RemoveAt returned a packet")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

// Removing the tail moves it back one packet: what is pushed next
// follows the new tail, and removing the only packet empties the queue.
func TestQueueRemoveAtTail(t *testing.T) {
	q := queueOf(4)
	if p := q.RemoveAt(3); p == nil || p.ID != 3 {
		t.Fatalf("RemoveAt(3) = %v, want ID 3", p)
	}
	q.Push(&Packet{ID: 7})
	if p := q.RemoveAt(3); p == nil || p.ID != 7 {
		t.Fatalf("RemoveAt(3) after a push = %v, want ID 7", p)
	}
	q.Push(&Packet{ID: 8})
	if got := drain(q); !sameIDs(got, []uint64{0, 1, 2, 8}) {
		t.Fatalf("served %v, want [0 1 2 8]", got)
	}

	one := queueOf(1)
	if p := one.RemoveAt(0); p == nil || one.Len() != 0 || one.Pop() != nil {
		t.Fatal("removing the only packet left the queue non-empty")
	}
	one.Push(&Packet{ID: 5})
	if got := drain(one); !sameIDs(got, []uint64{5}) {
		t.Fatalf("served %v, want [5]", got)
	}
}

func TestQueuePushOfQueuedPacketPanics(t *testing.T) {
	var q, other Queue
	p := &Packet{ID: 4, Seq: 11}
	q.Push(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("pushing a queued packet did not panic")
		}
		if msg := r.(string); !strings.Contains(msg, "queued packet ID=4 seq=11") {
			t.Fatalf("panic = %q, want it to name the packet", msg)
		}
		if other.Len() != 0 || q.Len() != 1 {
			t.Fatalf("lengths %d and %d after the refused push, want 0 and 1", other.Len(), q.Len())
		}
	}()
	other.Push(p)
}

// checkQueue holds q to the slice model: the links from the head reach
// exactly the model's packets, in order, each once, every one with a
// non-nil next and the last linked to queueEnd and held as the tail.
func checkQueue(q *Queue, model []*Packet) bool {
	if q.Len() != len(model) {
		return false
	}
	if len(model) == 0 {
		return q.head == nil && q.tail == nil
	}
	seen := make(map[*Packet]bool, len(model))
	p := q.head
	for i, m := range model {
		if p != m || seen[p] || p.next == nil {
			return false
		}
		seen[p] = true
		if i < len(model)-1 {
			p = p.next
		}
	}
	return p == q.tail && p.next == &queueEnd
}

// Property: under any sequence of pushes, pops, and mid-queue removals,
// the queue agrees with a plain slice model, and every packet taken out
// is unlinked.
func TestQueueInvariantsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue
		var model []*Packet
		id := uint64(0)
		for round := 0; round < 8; round++ {
			for _, op := range ops {
				switch {
				case op < 160:
					p := &Packet{ID: id}
					id++
					q.Push(p)
					model = append(model, p)
				case op < 230:
					got := q.Pop()
					if len(model) == 0 {
						if got != nil {
							return false
						}
						break
					}
					if got != model[0] || got.next != nil {
						return false
					}
					model = model[1:]
				default:
					i := int(op) % (len(model) + 1)
					got := q.RemoveAt(i)
					if i == len(model) {
						if got != nil {
							return false
						}
						break
					}
					if got != model[i] || got.next != nil {
						return false
					}
					model = append(model[:i:i], model[i+1:]...)
				}
				if !checkQueue(&q, model) {
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

// FuzzPacketQueue drives a queue over a fixed set of packets with the
// operations the bytes decode to — push, pop and RemoveAt(i), each
// followed by Len — against a slice model. A push of a packet already queued must panic
// and change nothing; every packet taken out must be unlinked; no packet
// is ever in the queue twice.
func FuzzPacketQueue(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 3, 7, 11, 6})
	f.Add([]byte{0, 0, 4, 8, 12, 19, 23, 2, 2, 2, 2})
	f.Add([]byte{1, 5, 9, 13, 17, 3, 255, 254, 253})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var pkts [8]Packet
		for i := range pkts {
			pkts[i].ID = uint64(i)
		}
		var q Queue
		var model []*Packet
		queued := func(p *Packet) bool {
			for _, m := range model {
				if m == p {
					return true
				}
			}
			return false
		}
		for k, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0, 1:
				p := &pkts[arg%len(pkts)]
				if queued(p) {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("op %d: pushing queued packet %d did not panic", k, p.ID)
							}
						}()
						q.Push(p)
					}()
					break
				}
				q.Push(p)
				model = append(model, p)
			case 2:
				got := q.Pop()
				var want *Packet
				if len(model) > 0 {
					want, model = model[0], model[1:]
				}
				if got != want {
					t.Fatalf("op %d: Pop = %v, want %v", k, got, want)
				}
				if got != nil && got.next != nil {
					t.Fatalf("op %d: popped packet %d still linked", k, got.ID)
				}
			case 3:
				i := arg - 2 // -2 and -1 are out of range too
				got := q.RemoveAt(i)
				var want *Packet
				if i >= 0 && i < len(model) {
					want = model[i]
					model = append(model[:i:i], model[i+1:]...)
				}
				if got != want {
					t.Fatalf("op %d: RemoveAt(%d) = %v, want %v", k, i, got, want)
				}
				if got != nil && got.next != nil {
					t.Fatalf("op %d: removed packet %d still linked", k, got.ID)
				}
			}
			if q.Len() != len(model) || !checkQueue(&q, model) {
				t.Fatalf("op %d: queue of %d disagrees with the model's %d packets", k, q.Len(), len(model))
			}
			for i := range pkts {
				if p := &pkts[i]; !queued(p) && p.next != nil {
					t.Fatalf("op %d: packet %d is in no queue but linked", k, p.ID)
				}
			}
		}
	})
}

// Put refuses a packet still in a queue, wherever it sits, and names it;
// a packet Pop or RemoveAt took out releases as any other.
func TestPoolRefusesQueuedPacket(t *testing.T) {
	for _, c := range []struct {
		name string
		pos  int
	}{{"head", 0}, {"middle", 1}, {"tail", 2}} {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPool()
			var q Queue
			var pkts []*Packet
			for i := range 3 {
				p := pl.Get()
				p.ID, p.Seq = uint64(10+i), 20+i
				q.Push(p)
				pkts = append(pkts, p)
			}
			victim := pkts[c.pos]
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("releasing a queued packet did not panic")
				}
				want := fmt.Sprintf("release of queued packet ID=%d seq=%d", victim.ID, victim.Seq)
				if msg := r.(string); !strings.Contains(msg, want) {
					t.Fatalf("panic = %q, want %q", msg, want)
				}
				if victim.Released() || pl.Free() != 0 {
					t.Fatal("the refused packet went into the free list")
				}
				if q.Len() != 3 {
					t.Fatalf("queue holds %d after the refused release, want 3", q.Len())
				}
			}()
			pl.Put(victim)
		})
	}
	t.Run("taken-out", func(t *testing.T) {
		pl := NewPool()
		var q Queue
		for range 3 {
			q.Push(pl.Get())
		}
		pl.Put(q.RemoveAt(1))
		pl.Put(q.Pop())
		pl.Put(q.RemoveAt(0))
		if pl.Free() != 3 || q.Len() != 0 {
			t.Fatalf("free list %d and queue %d, want 3 and 0", pl.Free(), q.Len())
		}
	})
}
