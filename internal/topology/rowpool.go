package topology

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
)

// Row is one switch's forwarding row: its address intervals in
// ascending order, one 32-bit word each. A word holds the interval's end
// (one past its last address; the last interval's end is the host
// count) shifted left by W, OR'd with its slot + 2 — code 0 is no route
// (SlotNone, only in a privately painted row), 1 the switch's own hosts
// (SlotLocal), 2 and up adjacency slot code−2. Ends ascend, so the words
// do, and the interval holding address a is the first word at or above
// (a+1)<<W: one search over one slice (Lookup).
//
// A compiled topology packs every row at one width, the bit length of
// its widest switch's degree + 1 (rowWidth): a non-local slot is
// relative to adjOff[s] — the actual link direction is
// adjHop[adjOff[s]+slot] — and storing slots instead of packed global
// hops is what makes rows shareable: on a chain every host-less switch
// between two clusters forwards "left hosts via slot 0, right hosts via
// slot 1" and all of them intern to a single pool row.
type Row struct {
	Words []uint32
	W     uint
}

// Slot sentinels of a Row. Non-negative slots are adjacency slots (a
// compiled row) or port indices (a switch's private row).
const (
	SlotNone  = int32(-2)
	SlotLocal = int32(-1)
)

// Len returns the number of intervals.
func (r Row) Len() int { return len(r.Words) }

// End returns the end of interval i.
func (r Row) End(i int) int32 { return int32(r.Words[i] >> r.W) }

// Slot returns the slot of interval i.
func (r Row) Slot(i int) int32 { return int32(r.Words[i]&(1<<r.W-1)) - 2 }

// Lookup returns the slot address a forwards through: SlotNone when a is
// negative or at or past the last end. The row must not be empty.
func (r Row) Lookup(a int) int32 {
	w, lo, hi := r.Words, 0, len(r.Words)-1
	if uint(a) >= uint(w[hi]>>r.W) {
		return SlotNone
	}
	key := uint32(a+1) << r.W
	for lo < hi { // the first word at or above key; the last one is
		if mid := (lo + hi) >> 1; w[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return r.Slot(lo)
}

// Append extends the row to end through slot and returns it, merging
// with a last interval of the same slot, so that a row built in address
// order comes out in canonical maximal form. A slot too wide for W
// re-packs the row at the width it needs; an end that does not fit
// beside the slots panics. Like the built-in append it may write r's
// backing array: only the row's owner appends.
func (r Row) Append(end, slot int32) Row {
	code := uint32(slot + 2)
	if n := len(r.Words); n > 0 && r.Words[n-1]&(1<<r.W-1) == code {
		r.Words[n-1] = pack(end, slot, r.W)
		return r
	}
	if code >= 1<<r.W {
		r = r.repack(uint(bits.Len32(code)))
	}
	r.Words = append(r.Words, pack(end, slot, r.W))
	return r
}

// repack returns the row's intervals at width w, in a new array.
func (r Row) repack(w uint) Row {
	out := Row{make([]uint32, len(r.Words), max(4, 2*cap(r.Words))), w}
	for i := range r.Words {
		out.Words[i] = pack(r.End(i), r.Slot(i), w)
	}
	return out
}

// pack makes the word of an interval ending at end through slot at
// width w, refusing an end the word cannot hold.
func pack(end, slot int32, w uint) uint32 {
	if uint64(end) >= 1<<(32-w) {
		panic(fmt.Sprintf("topology: row end %d does not fit beside a %d-bit slot in 32 bits", end, w))
	}
	return uint32(end)<<w | uint32(slot+2)
}

// rowWidth is the slot width of a compiled topology's rows: the bit
// length of the widest switch's degree + 1, the largest slot code its
// rows hold. It refuses a network whose addresses — up to the host
// count, the last end — and slots need more than a word's 32 bits
// together; widest is the widest switch and degree its degree.
func rowWidth(hosts, widest, degree int) (uint, error) {
	w := bits.Len(uint(degree + 1))
	if a := bits.Len(uint(hosts)); a+w > 32 {
		return 0, fmt.Errorf("topology: %d hosts need %d address bits and switch %d's %d links %d slot bits: more than the 32 of a forwarding-row word",
			hosts, a, widest, degree, w)
	}
	return uint(w), nil
}

// rowPool hash-conses per-switch forwarding rows, each the words of a
// Row at the topology's width. Rows are content-hashed and refcounted
// (one reference per switch pointing at the row).
//
// A row's words are immutable from the moment the pool files them.
// That is the ownership rule everything outside this file relies on
// (DESIGN.md §16): Compiled.Row hands the words out by reference, a
// running switch forwards straight from them, scheduled link events
// hold the rows they will install, and Clone shares them between pools
// — so release only forgets a dead row (the garbage collector frees it
// once its last outside holder lets go) and a recycled row id always
// gets a fresh slice.
//
// Interning is always serial — compile freezes switch rows in switch
// order, ApplyLinkChange splices in switch order — so row ids are
// deterministic and independent of the route-compiler worker count.
type rowPool struct {
	rows [][]uint32
	refs []int32
	hash []uint64
	// index maps a content hash to the first live row id carrying it;
	// chain[id] links the (almost always absent) further rows with the
	// same hash, -1 ending the list.
	index map[uint64]int32
	chain []int32
	free  []int32 // dead row ids available for reuse
}

func newRowPool() *rowPool {
	return &rowPool{index: make(map[uint64]int32)}
}

// hashRow mixes a row's words FNV-1a style.
func hashRow(row []uint32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range row {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// intern returns the id of the row with exactly this content, creating
// it (from a copy of row) if needed, and takes one reference.
func (p *rowPool) intern(row []uint32) int32 {
	h := hashRow(row)
	if id, ok := p.find(h, row); ok {
		return id
	}
	own := make([]uint32, len(row))
	copy(own, row)
	return p.add(h, own)
}

// adopt is intern for a row nobody else holds, with its hash: a new row
// keeps the caller's memory instead of a copy.
func (p *rowPool) adopt(h uint64, row []uint32) int32 {
	if id, ok := p.find(h, row); ok {
		return id
	}
	return p.add(h, row)
}

// find takes one more reference on the row with this hash and content,
// if there is one.
func (p *rowPool) find(h uint64, row []uint32) (int32, bool) {
	head, ok := p.index[h]
	if !ok {
		return -1, false
	}
	for id := head; id >= 0; id = p.chain[id] {
		if slices.Equal(p.rows[id], row) {
			p.refs[id]++
			return id, true
		}
	}
	return -1, false
}

// add files row, hashed h, under a new id with one reference.
func (p *rowPool) add(h uint64, row []uint32) int32 {
	head, ok := p.index[h]
	if !ok {
		head = -1
	}
	var id int32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = int32(len(p.rows))
		p.rows = append(p.rows, nil)
		p.refs = append(p.refs, 0)
		p.hash = append(p.hash, 0)
		p.chain = append(p.chain, -1)
	}
	p.rows[id] = row
	p.refs[id] = 1
	p.hash[id] = h
	p.chain[id] = head
	p.index[h] = id
	return id
}

// release drops one reference. At zero the row leaves the index, the
// pool forgets its words, and its id joins the free list.
func (p *rowPool) release(id int32) {
	p.refs[id]--
	if p.refs[id] > 0 {
		return
	}
	h := p.hash[id]
	if head := p.index[h]; head != id {
		prev := head
		for p.chain[prev] != id {
			prev = p.chain[prev]
		}
		p.chain[prev] = p.chain[id]
	} else if next := p.chain[id]; next >= 0 {
		p.index[h] = next
	} else {
		delete(p.index, h)
	}
	p.rows[id] = nil
	p.free = append(p.free, id)
}

// live returns the number of live (referenced) rows.
func (p *rowPool) live() int {
	n := 0
	for _, r := range p.refs {
		if r > 0 {
			n++
		}
	}
	return n
}

// clone copies the pool's bookkeeping; the rows themselves are
// immutable and shared.
func (p *rowPool) clone() *rowPool {
	return &rowPool{
		rows:  slices.Clone(p.rows),
		refs:  slices.Clone(p.refs),
		hash:  slices.Clone(p.hash),
		index: maps.Clone(p.index),
		chain: slices.Clone(p.chain),
		free:  slices.Clone(p.free),
	}
}
