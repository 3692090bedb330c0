package topology

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// qModel is radixQ's referee: a slice kept sorted by key.
type qModel struct {
	keys []time.Duration
	last time.Duration
}

func (m *qModel) push(d time.Duration) {
	i, _ := slices.BinarySearch(m.keys, d)
	m.keys = slices.Insert(m.keys, i, d)
}

func (m *qModel) pop() time.Duration {
	m.last = m.keys[0]
	m.keys = m.keys[1:]
	return m.last
}

// qOp is one step of a queue exercise. A push adds delta to the key
// popped last — the only keys a monotone queue may be given.
type qOp struct {
	kind  uint8 // 0 push, 1 pop, 2 reset
	delta time.Duration
}

// runQueueOps resets q, then drives it and the model through ops and
// compares every popped key. Switches are the entry's push number, so the popped
// (key, switch) pairs also show that no entry is returned twice or
// under another's key.
func runQueueOps(t *testing.T, q *radixQ, ops []qOp) {
	t.Helper()
	q.reset()
	var m qModel
	keyOf := make(map[int32]time.Duration) // pushed and not yet popped
	serial := int32(0)
	for i, op := range ops {
		switch {
		case op.kind == 2:
			q.reset()
			m = qModel{}
			clear(keyOf)
		case op.kind == 1 && len(m.keys) > 0:
			want := m.pop()
			if q.empty() {
				t.Fatalf("op %d: queue empty, model holds %d", i, len(m.keys)+1)
			}
			got := q.pop()
			if got.d != want {
				t.Fatalf("op %d: popped key %d, model %d", i, got.d, want)
			}
			if k, ok := keyOf[got.sw]; !ok || k != got.d {
				t.Fatalf("op %d: popped entry %d with key %d; it was pushed with %d (live %v)", i, got.sw, got.d, k, ok)
			}
			delete(keyOf, got.sw)
		case op.kind == 0:
			d := m.last + op.delta
			if d < m.last || d > maxDist-1 { // past the key range: clamp
				d = maxDist - 1
			}
			m.push(d)
			q.push(d, serial)
			keyOf[serial] = d
			serial++
		}
		if q.empty() != (len(m.keys) == 0) {
			t.Fatalf("op %d: empty = %v with %d keys in the model", i, q.empty(), len(m.keys))
		}
	}
	for len(m.keys) > 0 { // drain: the popped multisets are equal
		if want, got := m.pop(), q.pop(); got.d != want {
			t.Fatalf("drain: popped key %d, model %d", got.d, want)
		}
	}
	if !q.empty() {
		t.Fatal("drain: model empty, queue not")
	}
}

// TestRadixQueueAgainstSortedSlice runs seeded monotone push/pop
// sequences over small, middling and full-width key ranges: long runs
// of equal keys, buckets of one, reset and reuse mid-sequence.
func TestRadixQueueAgainstSortedSlice(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	rng := rand.New(rand.NewSource(20))
	var q radixQ // one queue throughout: every sequence reuses the last one's memory
	for done := 0; done < total; {
		span := []int64{10, 1 << 40, 1<<63 - 2}[rng.Intn(3)]
		pushBias := 1 + rng.Intn(4) // pushes per 5 ops: queues that stay near empty, and deep ones
		equalRun := rng.Intn(3) == 0
		ops := make([]qOp, 200+rng.Intn(3000))
		for i := range ops {
			switch {
			case rng.Intn(1500) == 0:
				ops[i].kind = 2
			case rng.Intn(5) >= pushBias:
				ops[i].kind = 1
			case equalRun && rng.Intn(8) > 0:
				ops[i].delta = 0 // the key popped last, again
			default:
				// Spread deltas over the bit widths, so high buckets get used.
				ops[i].delta = time.Duration(rng.Int63n(span)>>rng.Intn(63)) + time.Duration(rng.Intn(2))
			}
		}
		runQueueOps(t, &q, ops)
		done += len(ops)
	}
}

// FuzzRadixQueue decodes queue operations from bytes — an opcode, then
// for a push a shift and three delta bytes — and holds the queue to the
// sorted-slice model.
func FuzzRadixQueue(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 40, 255, 255, 255, 0, 62, 1, 0, 0, 1, 0, 3, 9, 9, 9, 1, 1, 2, 0, 0, 5, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 55, 1, 2, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []qOp
		for len(data) > 0 {
			op := qOp{kind: data[0] % 3}
			data = data[1:]
			if op.kind == 0 && len(data) >= 4 {
				v := int64(data[1])<<16 | int64(data[2])<<8 | int64(data[3])
				op.delta = time.Duration(v << (data[0] % 40)) // negative at the top: runQueueOps clamps
				data = data[4:]
			}
			if op.kind == 2 && len(ops)%7 != 0 { // resets are rare
				op.kind = 1
			}
			ops = append(ops, op)
		}
		runQueueOps(t, new(radixQ), ops)
	})
}
