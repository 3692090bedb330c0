package topology

import (
	"maps"
	"slices"
)

// slotLocal marks a forwarding-row interval whose hosts are attached to
// the switch itself. Non-negative slot values index the switch's CSR
// half-edges relative to adjOff[s]: the actual link direction is
// adjHop[adjOff[s]+slot]. Storing slots instead of packed global hops
// is what makes rows shareable — on a chain every host-less switch
// between two clusters forwards "left hosts via slot 0, right hosts via
// slot 1" and all of them intern to a single pool row.
const slotLocal = int32(-1)

// rowPool hash-conses per-switch forwarding rows. A row is a pair of
// equal-length int32 slices: ascending address-interval ends (the last
// always equals the host count) and the adjacency slot each interval
// forwards through. Rows are content-hashed and refcounted (one
// reference per switch pointing at the row).
//
// A row's slices are immutable from the moment intern creates them.
// That is the ownership rule everything outside this file relies on
// (DESIGN.md §16): Compiled.Row hands the slices out by reference, a
// running switch forwards straight from them, scheduled link events
// hold the rows they will install, and Clone shares them between pools
// — so release only forgets a dead row (the garbage collector frees it
// once its last outside holder lets go) and a recycled row id always
// gets fresh slices.
//
// Interning is always serial — compile freezes switch rows in switch
// order, ApplyLinkChange splices in switch order — so row ids are
// deterministic and independent of the route-compiler worker count.
type rowPool struct {
	ends  [][]int32
	slots [][]int32
	refs  []int32
	hash  []uint64
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

// hashRow mixes a row's content FNV-1a style. ends and slots always
// have equal length, so interleaving the pairs needs no separator.
func hashRow(ends, slots []int32) uint64 {
	h := uint64(1469598103934665603)
	for i := range ends {
		h ^= uint64(uint32(ends[i]))
		h *= 1099511628211
		h ^= uint64(uint32(slots[i]))
		h *= 1099511628211
	}
	return h
}

// newRow returns a row of n intervals in one allocation, ends first,
// slots after them (halves splits it): a row the pool forgets is freed
// whole.
func newRow(n int) []int32 { return make([]int32, 2*n) }

// halves splits a row made by newRow into its ends and its slots.
func halves(row []int32) (ends, slots []int32) {
	n := len(row) / 2
	return row[:n:n], row[n:]
}

// intern returns the id of the row with exactly this content, creating
// it (from copies of the arguments) if needed, and takes one reference.
func (p *rowPool) intern(ends, slots []int32) int32 {
	h := hashRow(ends, slots)
	if id, ok := p.find(h, ends, slots); ok {
		return id
	}
	row := newRow(len(ends))
	copy(row[copy(row, ends):], slots)
	return p.add(h, row)
}

// adopt is intern for a row made by newRow that nobody else holds, with
// its hash: a new row keeps the caller's memory instead of a copy.
func (p *rowPool) adopt(h uint64, row []int32) int32 {
	ends, slots := halves(row)
	if id, ok := p.find(h, ends, slots); ok {
		return id
	}
	return p.add(h, row)
}

// find takes one more reference on the row with this hash and content,
// if there is one.
func (p *rowPool) find(h uint64, ends, slots []int32) (int32, bool) {
	head, ok := p.index[h]
	if !ok {
		return -1, false
	}
	for id := head; id >= 0; id = p.chain[id] {
		if slices.Equal(p.ends[id], ends) && slices.Equal(p.slots[id], slots) {
			p.refs[id]++
			return id, true
		}
	}
	return -1, false
}

// add files row, hashed h, under a new id with one reference.
func (p *rowPool) add(h uint64, row []int32) int32 {
	head, ok := p.index[h]
	if !ok {
		head = -1
	}
	var id int32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = int32(len(p.ends))
		p.ends = append(p.ends, nil)
		p.slots = append(p.slots, nil)
		p.refs = append(p.refs, 0)
		p.hash = append(p.hash, 0)
		p.chain = append(p.chain, -1)
	}
	p.ends[id], p.slots[id] = halves(row)
	p.refs[id] = 1
	p.hash[id] = h
	p.chain[id] = head
	p.index[h] = id
	return id
}

// release drops one reference. At zero the row leaves the index, the
// pool forgets its slices, and its id joins the free list.
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
	p.ends[id], p.slots[id] = nil, nil
	p.free = append(p.free, id)
}

// rows returns the number of live (referenced) rows.
func (p *rowPool) rows() int {
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
		ends:  slices.Clone(p.ends),
		slots: slices.Clone(p.slots),
		refs:  slices.Clone(p.refs),
		hash:  slices.Clone(p.hash),
		index: maps.Clone(p.index),
		chain: slices.Clone(p.chain),
		free:  slices.Clone(p.free),
	}
}
