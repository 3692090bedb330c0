package sim

import (
	"math/bits"
	"slices"

	"tahoedyn/internal/packet"
)

// Hierarchical timing wheel (calendar queue).
//
// Simulated time is quantized into ticks of 2^tickShift nanoseconds
// (524.288µs). Four levels of 256 slots each cover a horizon of 2^32
// ticks (~625 simulated hours): level 0 resolves single ticks (~134ms
// per rotation), and each higher level widens the slot by 8 bits
// (level-1 slots span ~134ms, level-2 ~34.4s, level-3 ~2.44h). The
// tick is deliberately coarse: the paper's workloads — 100µs host
// processing, 400µs-8ms access drains, 80ms/packet trunk transmission,
// 10ms-1s two-way delays, RTO deadlines on a 500ms grid — then land
// almost entirely within the *current* level-0 occupancy word, so the
// batched word activation below drains whole bursts per bitmap probe
// and same-tick collisions resolve in the sorted run, not by cursor
// crawling. Coarser (2^20) starts aliasing distinct transmissions into
// one slot's sort; finer (2^16-2^18) measurably loses throughput to
// cursor advancement (see DESIGN.md §11). Events beyond the 2^32-tick
// horizon go to an unsorted overflow list that is pulled back in when
// its top-level rotation opens.
//
// Determinism contract (see DESIGN.md §11): the cursor visits slots in
// strictly increasing tick order and a slot's bucket is sorted by
// (time, seq) — every seq is unique, so the sort is a total order and
// bucket insertion order is irrelevant. Events that land at or behind
// the cursor (same-instant schedules, or schedules behind a cursor that
// peeked ahead) are binary-search inserted into the sorted active run
// by the full (time, seq) key; locally scheduled events carry the
// largest seq so far and land after all equal timestamps, while
// injected cross-region events (Engine.InjectPacketAt) carry
// interpolated seqs and may land earlier among equals. The result is
// exactly the (time, seq) firing order the heap produces.
//
// Cancel policy: events in unsorted buckets or overflow are
// swap-removed and recycled immediately (O(1)); events already in the
// sorted active run are cancel-marked in place (removal would shift the
// positions a concurrent binary search relies on) and recycled when the
// drain skips them. Retransmission timers — the dominant cancel source
// — rearm in place without any of this when the new deadline maps to
// the same bucket (Engine.rearm).
const (
	tickShift = 19 // one tick = 2^19 ns = 524.288µs of simulated time
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 4
	wordCount = numSlots / 64
	horizon   = 1 << (numLevels * slotBits) // ticks covered by the wheels
)

type wheel struct {
	// curTick is the wheel cursor: the tick of the most recently
	// activated level-0 slot. Buckets only ever hold events with ticks
	// strictly greater than curTick; everything at or behind it is in
	// the active run.
	curTick uint64
	// run is the sorted (time, seq) drain buffer: the contents of the
	// last activated slot, plus any events scheduled at or behind the
	// cursor since. run[runHead:] are still pending.
	run     []*Event
	runHead int
	// overflow holds events beyond the wheel horizon, unsorted.
	overflow []*Event
	lvlCount [numLevels]int                // live events per level
	occ      [numLevels][wordCount]uint64  // occupancy bitmap per level
	slots    [numLevels][numSlots][]*Event // unsorted buckets
}

// bucketSeedCap is the initial capacity of every slot bucket. The
// buckets are carved from one backing array so a fresh engine pays a
// single allocation, and the advancing cursor never allocates just for
// touching a slot it has not visited before — only a bucket holding
// more than bucketSeedCap simultaneous events grows (and keeps) a
// larger one.
const bucketSeedCap = 4

func newWheel() *wheel {
	w := &wheel{}
	backing := make([]*Event, numLevels*numSlots*bucketSeedCap)
	i := 0
	for l := 0; l < numLevels; l++ {
		for s := 0; s < numSlots; s++ {
			w.slots[l][s] = backing[i : i : i+bucketSeedCap]
			i += bucketSeedCap
		}
	}
	return w
}

func tickOf(t Time) uint64 { return uint64(t) >> tickShift }

// levelFor returns the wheel level for an event dt ticks ahead of the
// cursor, or -1 when it is beyond the horizon.
func levelFor(dt uint64) int {
	switch {
	case dt < 1<<slotBits:
		return 0
	case dt < 1<<(2*slotBits):
		return 1
	case dt < 1<<(3*slotBits):
		return 2
	case dt < horizon:
		return 3
	}
	return -1
}

// locate returns the bucket an event firing at t would be placed in
// right now; ok is false when t maps to the active run or overflow.
func (w *wheel) locate(t Time) (l, s int, ok bool) {
	tk := tickOf(t)
	if tk <= w.curTick {
		return 0, 0, false
	}
	l = levelFor(tk - w.curTick)
	if l < 0 {
		return 0, 0, false
	}
	return l, int(tk>>(uint(l)*slotBits)) & slotMask, true
}

// push files a freshly scheduled event: into the sorted run when it
// fires at or behind the cursor, into a level bucket inside the
// horizon, or into overflow beyond it.
func (w *wheel) push(ev *Event) {
	tk := tickOf(ev.at)
	if tk <= w.curTick {
		w.insertRun(ev)
		return
	}
	l := levelFor(tk - w.curTick)
	if l < 0 {
		ev.where = whereOverflow
		ev.index = int32(len(w.overflow))
		w.overflow = append(w.overflow, ev)
		return
	}
	w.place(ev, l, int(tk>>(uint(l)*slotBits))&slotMask)
}

// place appends ev to bucket (l, s) and maintains the occupancy bits.
func (w *wheel) place(ev *Event, l, s int) {
	ev.where = whereLevel0 + int8(l)
	ev.slot = uint8(s)
	b := w.slots[l][s]
	ev.index = int32(len(b))
	w.slots[l][s] = append(b, ev)
	w.lvlCount[l]++
	if len(b) == 0 {
		w.occ[l][s>>6] |= 1 << (uint(s) & 63)
	}
}

// replace re-files an event relative to the current cursor after a
// cascade or an overflow pull. The caller guarantees tick >= curTick.
func (w *wheel) replace(ev *Event) {
	tk := tickOf(ev.at)
	l := levelFor(tk - w.curTick)
	w.place(ev, l, int(tk>>(uint(l)*slotBits))&slotMask)
}

// insertRun binary-search inserts ev into the sorted active run by the
// full (time, seq) key. An engine-scheduled event's seq exceeds every
// queued seq, so it lands after all equal timestamps exactly as the old
// time-only search placed it; injected events (Engine.InjectPacketAt)
// carry interpolated seqs that may order before queued same-instant
// events, which the full key honors.
func (w *wheel) insertRun(ev *Event) {
	ev.where = whereRun
	lo, hi := w.runHead, len(w.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(w.run[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.run = append(w.run, nil)
	copy(w.run[lo+1:], w.run[lo:])
	w.run[lo] = ev
}

// removeBucket swap-removes ev from its bucket; where names the level.
func (w *wheel) removeBucket(ev *Event, where int8) {
	l := int(where - whereLevel0)
	s := int(ev.slot)
	b := w.slots[l][s]
	n := len(b) - 1
	i := int(ev.index)
	if i != n {
		moved := b[n]
		b[i] = moved
		moved.index = int32(i)
	}
	b[n] = nil
	w.slots[l][s] = b[:n]
	w.lvlCount[l]--
	if n == 0 {
		w.occ[l][s>>6] &^= 1 << (uint(s) & 63)
	}
}

// removeOverflow swap-removes ev from the overflow list.
func (w *wheel) removeOverflow(ev *Event) {
	o := w.overflow
	n := len(o) - 1
	i := int(ev.index)
	if i != n {
		moved := o[n]
		o[i] = moved
		moved.index = int32(i)
	}
	o[n] = nil
	w.overflow = o[:n]
}

// nextSlot returns the lowest occupied slot >= from at level l, or -1.
func (w *wheel) nextSlot(l, from int) int {
	if from >= numSlots {
		return -1
	}
	wi := from >> 6
	word := w.occ[l][wi] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi >= wordCount {
			return -1
		}
		word = w.occ[l][wi]
	}
}

// cascade empties bucket (l, s) — whose span the cursor just entered —
// re-filing every event one or more levels down.
func (w *wheel) cascade(l, s int) {
	b := w.slots[l][s]
	if len(b) == 0 {
		return
	}
	w.slots[l][s] = b[:0]
	w.occ[l][s>>6] &^= 1 << (uint(s) & 63)
	w.lvlCount[l] -= len(b)
	for i, ev := range b {
		b[i] = nil
		w.replace(ev)
	}
}

// activeRunMax bounds how many events one activation moves into the
// run. The run's length is what every event scheduled at or behind the
// cursor pays — it is binary-searched and shifted into place — and a
// whole 64-slot word of a 2048-switch graph holds thousands of events,
// nearly all of whose children land behind the cursor. The paper's
// sparse streams never reach the bound (a word there holds a handful of
// events), so they keep the one activation per word — a bound of one
// slot cost paper-twoway 3 % — while on mesh-ba2048 one slot and 32
// events measured alike. Any bound fires the same order (DESIGN.md §11).
const activeRunMax = 32

// activateWord extracts occupied level-0 slots named by word (a
// pre-masked occupancy word of bitmap index wi, holding only bits at or
// ahead of the cursor) into the run, lowest first, until the word is
// spent or the run holds activeRunMax events; it advances the cursor to
// the last slot taken and sorts the run by (time, seq). Slots it did not
// reach keep their occupancy bits and their buckets — ahead of the
// cursor, where cancel is a swap-remove and rearm an update in place.
//
// Batching across a word amortizes the advance/activate overhead
// over every event in its span — for the sparse event streams TCP
// scenarios produce, that is several events per scan instead of one.
// Peeking the cursor ahead is safe: events that later schedule at or
// behind it binary-search into the run, so the global (time, seq) order
// is untouched. The span is at most one word (~34ms) on purpose —
// RTO-scale timers stay in their buckets where rearm can update them in
// place.
//
// The copy, the bucket clear, and the whereRun relabel are one fused
// pass. Small runs insertion-sort: slots are taken in ascending tick
// order, so the concatenation is usually nearly sorted and the common
// few-event run costs a handful of compares. Large runs — ACK
// compression packs dozens of sub-tick-spaced arrivals into one bucket
// in arbitrary time order, the insertion sort's quadratic worst case —
// fall back to pdqsort.
func (w *wheel) activateWord(wi int, word uint64) {
	r := w.run[:0]
	last := 0
	for word != 0 && len(r) < activeRunMax {
		s := wi<<6 + bits.TrailingZeros64(word)
		w.occ[0][wi] &^= word & -word
		word &= word - 1
		last = s
		b := w.slots[0][s]
		w.lvlCount[0] -= len(b)
		for i, ev := range b {
			b[i] = nil
			ev.where = whereRun
			r = append(r, ev)
		}
		w.slots[0][s] = b[:0]
	}
	w.curTick = w.curTick&^uint64(slotMask) | uint64(last)
	if len(r) > 24 {
		slices.SortFunc(r, func(a, b *Event) int {
			if less(a, b) {
				return -1
			}
			return 1
		})
	} else {
		for i := 1; i < len(r); i++ {
			ev := r[i]
			j := i - 1
			for j >= 0 && less(ev, r[j]) {
				r[j+1] = r[j]
				j--
			}
			r[j+1] = ev
		}
	}
	w.run = r
	w.runHead = 0
}

// minOverflowTick scans the overflow list for the earliest tick. Only
// called when every wheel level is empty, which is rare.
func (w *wheel) minOverflowTick() uint64 {
	min := tickOf(w.overflow[0].at)
	for _, ev := range w.overflow[1:] {
		if tk := tickOf(ev.at); tk < min {
			min = tk
		}
	}
	return min
}

// pullInto advances the cursor to rot (a top-level rotation start) and
// files every overflow event that now fits the horizon into the wheels.
func (w *wheel) pullInto(rot uint64) {
	w.curTick = rot
	kept := w.overflow[:0]
	for _, ev := range w.overflow {
		if tickOf(ev.at)-rot < horizon {
			w.replace(ev)
		} else {
			ev.index = int32(len(kept))
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(w.overflow); i++ {
		w.overflow[i] = nil
	}
	w.overflow = kept
}

// stepTo moves the cursor to t — the start of a level-0 rotation the
// caller has proven empty of events in between — cascading each
// upper-level slot whose span it enters (top level first, so lower
// cascades see the refiled events). A top-level wrap opens a new
// overflow window.
func (w *wheel) stepTo(t uint64) {
	w.curTick = t
	if t&(1<<(2*slotBits)-1) == 0 {
		if t&(1<<(3*slotBits)-1) == 0 {
			if t&(horizon-1) == 0 {
				w.pullInto(t)
			}
			w.cascade(3, int(t>>(3*slotBits))&slotMask)
		}
		w.cascade(2, int(t>>(2*slotBits))&slotMask)
	}
	w.cascade(1, int(t>>slotBits)&slotMask)
}

// step crawls the cursor to the start of the next level-0 rotation.
func (w *wheel) step() {
	w.stepTo((w.curTick | slotMask) + 1)
}

// advance moves the cursor to the next slot holding events and
// activates it into the run. The caller guarantees the run is drained
// and at least one live event is in the wheel structure.
func (w *wheel) advance() {
	for {
		// Fast path: the first occupied word of this level-0 rotation, at
		// or ahead of the cursor, activated up to the run bound. Bits
		// behind the cursor within its own word are next-rotation
		// stragglers and are masked off.
		cur := int(w.curTick) & slotMask
		for wi := cur >> 6; wi < wordCount; wi++ {
			word := w.occ[0][wi]
			if wi == cur>>6 {
				word &^= 1<<(uint(cur)&63) - 1
			}
			if word != 0 {
				w.activateWord(wi, word)
				return
			}
		}
		// This level-0 rotation is spent. Jump straight to the next
		// occupied slot of the first non-empty upper level and cascade
		// it. A level that holds only stragglers — events already filed
		// into its next rotation's slots, which sit at or behind the
		// cursor and must not be skipped — has nothing ahead of the
		// cursor either, so the span up to its rotation boundary is
		// provably empty: jump to the boundary, where the next rotation
		// opens and the stragglers come back into view. Only a level-0
		// straggler forces a single-rotation crawl with step().
		if w.lvlCount[0] == 0 {
			if s := w.nextSlot(1, (int(w.curTick>>slotBits)&slotMask)+1); s >= 0 {
				w.curTick = w.curTick&^uint64(1<<(2*slotBits)-1) | uint64(s)<<slotBits
				w.cascade(1, s)
				continue
			}
			if w.lvlCount[1] != 0 {
				w.stepTo((w.curTick>>(2*slotBits) + 1) << (2 * slotBits))
				continue
			}
			if s := w.nextSlot(2, (int(w.curTick>>(2*slotBits))&slotMask)+1); s >= 0 {
				w.curTick = w.curTick&^uint64(1<<(3*slotBits)-1) | uint64(s)<<(2*slotBits)
				w.cascade(2, s)
				continue
			}
			if w.lvlCount[2] != 0 {
				w.stepTo((w.curTick>>(3*slotBits) + 1) << (3 * slotBits))
				continue
			}
			if s := w.nextSlot(3, (int(w.curTick>>(3*slotBits))&slotMask)+1); s >= 0 {
				w.curTick = w.curTick&^uint64(horizon-1) | uint64(s)<<(3*slotBits)
				w.cascade(3, s)
				continue
			}
			if w.lvlCount[3] != 0 {
				w.stepTo((w.curTick>>(4*slotBits) + 1) << (4 * slotBits))
				continue
			}
			// Only overflow holds events: open the rotation containing
			// the earliest one.
			w.pullInto(w.minOverflowTick() &^ uint64(horizon-1))
			continue
		}
		w.step()
	}
}

// drainInto recycles every queued event into the engine free list, its
// packet into pl, and rewinds the wheel to its initial state, keeping
// bucket storage warm.
func (w *wheel) drainInto(e *Engine, pl *packet.Pool) {
	for w.runHead < len(w.run) {
		ev := w.run[w.runHead]
		w.run[w.runHead] = nil
		w.runHead++
		e.discard(ev, pl)
	}
	w.run = w.run[:0]
	w.runHead = 0
	for l := 0; l < numLevels; l++ {
		for wi := range w.occ[l] {
			word := w.occ[l][wi]
			if word == 0 {
				continue
			}
			w.occ[l][wi] = 0
			for word != 0 {
				s := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				b := w.slots[l][s]
				for i, ev := range b {
					b[i] = nil
					e.discard(ev, pl)
				}
				w.slots[l][s] = b[:0]
			}
		}
		w.lvlCount[l] = 0
	}
	for i, ev := range w.overflow {
		w.overflow[i] = nil
		e.discard(ev, pl)
	}
	w.overflow = w.overflow[:0]
	w.curTick = 0
}

// wheelNext returns the next live event without dequeuing it, recycling
// cancel-marked run entries as it goes; nil when the queue is empty.
func (e *Engine) wheelNext() *Event {
	w := e.w
	for {
		for w.runHead < len(w.run) {
			ev := w.run[w.runHead]
			if !ev.canceled {
				return ev
			}
			w.run[w.runHead] = nil
			w.runHead++
			e.recycle(ev)
		}
		if e.pending == 0 {
			return nil
		}
		w.advance()
	}
}

// wheelPop dequeues the run head previously returned by wheelNext.
func (e *Engine) wheelPop() {
	w := e.w
	ev := w.run[w.runHead]
	w.run[w.runHead] = nil
	w.runHead++
	ev.where = whereDetached
}
