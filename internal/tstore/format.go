// Package tstore is the out-of-core trace store: a columnar, chunked
// on-disk container for obs event streams, an index that lets queries
// skip chunks wholesale, a small streaming query layer (filter,
// project, windowed aggregate, percentile), and a streaming invariant
// engine (per-hop packet conservation, event-time monotonicity, cwnd
// bounds) that runs online during a simulation or offline over a
// stored trace.
//
// It exists because a billion-event run cannot hold its trace in RAM:
// the Writer plugs in as an obs.Sink, so events spill to disk while
// the simulation executes with memory bounded by one chunk, and the
// reader side never materializes more than one chunk either. The
// format ("TOBC") carries internal/obs's event model with a versioned
// header, laid out in columns for selective scans instead of
// sequential replay.
//
// See DESIGN.md §14 for the chunk layout, the footer index, and the
// invariant semantics.
package tstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
)

// The container format. A store file is
//
//	header | chunk* | footer | trailer
//
// header (12 bytes): "TOBC" magic, uint16 version, uint16 reserved
// (zero), uint32 target events per chunk. The version is storeVersion:
// every column but time bit-packed. A store of any other version is
// refused at open: a store is a cache of a deterministic run, so the run
// is written again rather than an old layout read.
//
// chunk: uint32 payload length, then the columnar payload (see
// encodeChunk).
//
// footer: the location table, the chunk index, and the total event
// count, all varint-encoded (see writeFooter).
//
// trailer (12 bytes): uint32 CRC-32 (IEEE) of the footer bytes, uint32
// footer length, "TOBF" magic. The reader finds the footer by seeking
// to the end, so a store streams to any io.Writer — no mid-file
// seeking — and a truncated or corrupted file is rejected up front.
const (
	storeMagic   = "TOBC"
	footerMagic  = "TOBF"
	storeVersion = 3

	headerSize  = 12
	trailerSize = 12

	// DefaultChunkEvents is the chunk granularity when
	// WriterOptions.ChunkEvents is zero: the unit of both the writer's
	// memory bound and the reader's skip resolution. Writer and reader
	// walk a chunk once per column, so it has to sit in L2: 4096 events
	// are 160 KB, and one flush of the tracer's default ring (DESIGN §14).
	DefaultChunkEvents = 1 << 12

	// maxChunkEvents caps WriterOptions.ChunkEvents: at the worst case,
	// about 50 bytes an event, a chunk stays inside maxChunkPayload.
	maxChunkEvents = 1 << 20

	// maxChunkPayload bounds a declared chunk payload so a corrupted
	// length field cannot demand an absurd allocation.
	maxChunkPayload = 1 << 28
)

// ChunkInfo is one footer-index entry: where a chunk lives and the
// ranges a query consults to skip it without reading it.
type ChunkInfo struct {
	// Offset is the file position of the chunk's length word; Size is
	// the payload length in bytes.
	Offset int64
	Size   int64
	// Count is the number of events in the chunk.
	Count int
	// MinT and MaxT bound the chunk's event times (inclusive).
	MinT, MaxT time.Duration
	// TypeMask has bit 1<<t set for every event Type t present.
	TypeMask uint32
	// ConnLo and ConnHi bound the connection ids present.
	ConnLo, ConnHi int32
	// LocLo and LocHi bound the store-level location ids present.
	LocLo, LocHi uint16
}

// overlaps reports whether a chunk can contain events matched by q
// (with the query's Loc already resolved to a store id, or -1 for
// "any"). False means the whole chunk is skipped unread.
func (c *ChunkInfo) overlaps(q Query, locID int) bool {
	if q.To > 0 && c.MinT >= q.To {
		return false
	}
	if c.MaxT < q.From {
		return false
	}
	if q.Filter.Types != 0 && q.Filter.Types&c.TypeMask == 0 {
		return false
	}
	if q.Filter.Conn != 0 {
		if conn := int32(q.Filter.Conn); conn < c.ConnLo || conn > c.ConnHi {
			return false
		}
	}
	if locID >= 0 {
		if l := uint16(locID); l < c.LocLo || l > c.LocHi {
			return false
		}
	}
	return true
}

// unsettled returns the predicates of q, named by the column each one
// reads, that the index entry does not decide for the whole chunk —
// the ones a scan still has to test event by event. Empty means every
// event of an overlapping chunk matches: Count answers from the index,
// and a scan reads no column on the query's behalf.
func (c *ChunkInfo) unsettled(q Query, locID int) colSet {
	var open colSet
	if q.From > c.MinT || (q.To > 0 && c.MaxT >= q.To) {
		open |= colT
	}
	if q.Filter.Types != 0 && c.TypeMask&^q.Filter.Types != 0 {
		open |= colType
	}
	if q.Filter.Conn != 0 && (c.ConnLo != c.ConnHi || int(c.ConnLo) != q.Filter.Conn) {
		open |= colConn
	}
	if locID >= 0 && (c.LocLo != c.LocHi || int(c.LocLo) != locID) {
		open |= colLoc
	}
	return open
}

// zigzag folds a signed value into an unsigned one with small absolute
// values staying small — the standard varint-friendly encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decoder walks a byte slice with error-latching reads: every helper
// reports malformed input (truncation, overlong varints) through err
// instead of panicking, so the fuzz targets can hammer arbitrary bytes.
type decoder struct {
	b   []byte
	off int
	err error
	// spans, when set, receives the column boundaries a chunk decode
	// passes; mark is the offset of the last one.
	spans *chunkSpans
	mark  int
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, off := uvarintAt(d.b, d.off)
	if off > len(d.b) {
		d.fail("tstore: truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off = off
	return v
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("tstore: truncated field at offset %d (want %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// count reads an element count and sanity-bounds it against the bytes
// that remain, so corrupted counts cannot demand absurd allocations:
// every counted element costs at least one encoded byte.
func (d *decoder) count(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail("tstore: %s count %d exceeds remaining payload (%d bytes)", what, v, len(d.b)-d.off)
		return 0
	}
	return int(v)
}

// valTag* select the value-column encoding: tag 0 is a frame-of-reference
// column over the zigzagged integers — queue lengths, window sizes,
// timeout counts — whose patch list carries the exceptions' raw float64
// bits; tag 1 stores every value as raw float64 bits.
const (
	valTagInt byte = 0
	valTagRaw byte = 1
)

// colSet names a set of event columns: which fields of obs.Event a scan
// materializes and which of a query's predicates still need a per-event
// test.
type colSet uint16

const (
	colT colSet = 1 << iota
	colType
	colKind
	colLoc
	colConn
	colSeq
	colSize
	colID
	colVal

	colAll colSet = 1<<iota - 1
)

// numColumns is the number of event columns, one per bit of colAll, in
// the order a chunk stores them.
const numColumns = 9

// Encoding names how one chunk stores one column (see Store.Layout).
type Encoding uint8

const (
	// EncVarint is one varint an event: the time column.
	EncVarint Encoding = iota
	// EncPacked is one bit width for the whole chunk: the values
	// themselves, dictionary codes, or offsets from a base.
	EncPacked
	// EncPatched is packed plus a patch list of raw values for the events
	// the packing leaves out.
	EncPatched
	// EncRaw is a float64 an event: a value column with too few integers.
	EncRaw

	numEncodings
)

var encodingNames = [numEncodings]string{"varint", "packed", "patched", "raw"}

func (e Encoding) String() string {
	if e < numEncodings {
		return encodingNames[e]
	}
	return fmt.Sprintf("Encoding(%d)", e)
}

// codeTable is the encoder's scratch, kept across chunks. vals holds the
// column being written: its stored values, then what is packed. codes
// is the direct-index dictionary: slot v-lo holds the code of value v
// plus one (zero is "absent") while a column is being written, and
// every slot is zero between columns. dict is the dictionary being
// written; exc holds the value column's exceptions, and patches the
// patch list being written.
type codeTable struct {
	vals    []uint64
	codes   []uint32
	dict    []uint64
	exc     []patch
	patches []patch
}

// patch is one patch-list entry: an event's index and its raw bits.
type patch struct {
	i   int
	raw uint64
}

// column returns vals resized to n.
func (t *codeTable) column(n int) []uint64 {
	if cap(t.vals) < n {
		t.vals = make([]uint64, n, max(n, 2*cap(t.vals)))
	}
	t.vals = t.vals[:n]
	return t.vals
}

// span returns the first n code slots, growing the table geometrically.
func (t *codeTable) span(n int) []uint32 {
	if cap(t.codes) < n {
		t.codes = make([]uint32, max(n, 2*cap(t.codes)))
	}
	return t.codes[:n]
}

// maxCodeSpan is the widest range of stored values (hi-lo+1) a
// dictionary column codes by direct index. Location ids are 16-bit, so
// they always fit; wider ranges take the sorted-slice path.
const maxCodeSpan = 1 << 16

// encodeChunk appends the columnar payload for events — format v3, laid
// out in DESIGN §14 — to buf and returns it along with the chunk's index
// entry. Events carry store-level location ids (the writer re-interns
// before staging).
func encodeChunk(buf []byte, events []obs.Event, tab *codeTable) ([]byte, ChunkInfo) {
	info := ChunkInfo{
		Count:  len(events),
		MinT:   events[0].T,
		MaxT:   events[0].T,
		ConnLo: events[0].Conn,
		ConnHi: events[0].Conn,
		LocLo:  uint16(events[0].Loc),
		LocHi:  uint16(events[0].Loc),
	}
	buf = binary.AppendUvarint(buf, uint64(len(events)))

	// Time column: zigzag deltas from the previous event (the first from
	// zero). Tracer streams are time-ordered, so deltas are small and
	// non-negative; zigzag keeps out-of-order offline ingests legal.
	prev := time.Duration(0)
	b, k := varintRoom(buf, len(events))
	for i := range events {
		ev := &events[i]
		k = putUvarint(b, k, zigzag(int64(ev.T-prev)))
		prev = ev.T
		if ev.T < info.MinT {
			info.MinT = ev.T
		}
		if ev.T > info.MaxT {
			info.MaxT = ev.T
		}
		info.TypeMask |= 1 << ev.Type
		if ev.Conn < info.ConnLo {
			info.ConnLo = ev.Conn
		}
		if ev.Conn > info.ConnHi {
			info.ConnHi = ev.Conn
		}
		if l := uint16(ev.Loc); l < info.LocLo {
			info.LocLo = l
		} else if l > info.LocHi {
			info.LocHi = l
		}
	}
	buf = b[:k]

	// Every other column is staged in vals as its stored values — the
	// staging loop keeps what the column's encoder needs: the union of
	// the bits, the range, or the least value — then bit-packed: type
	// and kind as they are; location, connection and size as dictionary
	// codes; seq and id as offsets from a base. Connection, seq and size
	// are stored zigzagged.
	vals := tab.column(len(events))
	var or uint64
	for i := range events {
		vals[i] = uint64(events[i].Type)
		or |= vals[i]
	}
	buf = appendPackedColumn(buf, vals, or)
	or = 0
	for i := range events {
		vals[i] = uint64(events[i].Kind)
		or |= vals[i]
	}
	buf = appendPackedColumn(buf, vals, or)
	for i := range events {
		vals[i] = uint64(uint16(events[i].Loc))
	}
	buf = tab.appendDict(buf, uint64(info.LocLo), uint64(info.LocHi))
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range events {
		v := zigzag(int64(events[i].Conn))
		vals[i], lo, hi = v, min(lo, v), max(hi, v)
	}
	buf = tab.appendDict(buf, lo, hi)
	base := uint64(math.MaxUint64)
	for i := range events {
		v := zigzag(int64(events[i].Seq))
		vals[i], base = v, min(base, v)
	}
	buf = tab.appendFOR(buf, base, false)
	lo, hi = math.MaxUint64, 0
	for i := range events {
		v := zigzag(int64(events[i].Size))
		vals[i], lo, hi = v, min(lo, v), max(hi, v)
	}
	buf = tab.appendDict(buf, lo, hi)
	base = math.MaxUint64
	for i := range events {
		vals[i], base = events[i].ID, min(base, events[i].ID)
	}
	buf = tab.appendFOR(buf, base, false)

	// Value column: a frame of reference over the zigzagged integers, for
	// every exact integer of magnitude at most 2⁵² other than −0; every
	// other value is an exception and goes to the patch list (tag 0),
	// unless raw float64 bits are shorter (tag 1).
	tagAt := len(buf)
	buf = append(buf, valTagInt)
	base = math.MaxUint64
	for i := range events {
		v := events[i].Val
		// float64(iv) == v holds for the integers in int64's range (and
		// for −0, which keeps its sign only as raw bits).
		iv := int64(v)
		if float64(iv) != v || uint64(iv+1<<52) > 1<<53 || math.Float64bits(v) == 1<<63 {
			tab.exc = append(tab.exc, patch{i, math.Float64bits(v)})
			continue
		}
		vals[i] = zigzag(iv)
		base = min(base, vals[i])
	}
	buf = tab.appendFOR(buf, base, true)
	tab.exc = tab.exc[:0]
	if len(buf)-tagAt-1 > 8*len(events) {
		buf = append(buf[:tagAt], valTagRaw)
		for i := range events {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(events[i].Val))
		}
	}
	return buf, info
}

// appendPackedColumn writes vals, whose bits or is the union of, as a
// packed column: the bit length of the largest as the width byte, then
// every value at that width.
func appendPackedColumn(buf []byte, vals []uint64, or uint64) []byte {
	w := bits.Len64(or)
	return appendPacked(append(buf, byte(w)), vals, uint(w), 0)
}

// appendDict writes t.vals, which lie in [lo, hi], as a dictionary
// column: the count of distinct values, the values as varints, then
// every event's code — its value's index in the dictionary — packed at
// the width the count implies. A range the direct-index table takes is
// coded in one pass, the values listed in order of first appearance; a
// wider one is sorted, and listed ascending. It leaves t.vals holding
// the codes.
func (t *codeTable) appendDict(buf []byte, lo, hi uint64) []byte {
	vals, dict := t.vals, t.dict[:0]
	if hi-lo < maxCodeSpan {
		codes := t.span(int(hi-lo) + 1)
		for i, v := range vals {
			c := codes[v-lo]
			if c == 0 {
				dict = append(dict, v)
				c = uint32(len(dict))
				codes[v-lo] = c
			}
			vals[i] = uint64(c - 1)
		}
		for _, v := range dict {
			codes[v-lo] = 0
		}
	} else {
		dict = append(dict, vals...)
		slices.Sort(dict)
		dict = slices.Compact(dict)
		for i, v := range vals {
			code, _ := slices.BinarySearch(dict, v)
			vals[i] = uint64(code)
		}
	}
	t.dict = dict
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, v := range dict {
		buf = binary.AppendUvarint(buf, v)
	}
	return appendPacked(buf, vals, uint(bits.Len(uint(len(dict)-1))), 0)
}

// appendFOR writes t.vals as a frame-of-reference column: base, their
// least, as a varint; a width byte; every event's offset from the base
// packed at that width; and a patch list. The events in t.exc, the value
// column's exceptions, carry their raw bits there. The list carries
// those and every event whose offset needs more bits than the width: its
// value itself or, with floats, the float64 bits of the zigzagged
// integer. The width is the one that makes the column shortest,
// counting a patch at 9 bytes.
func (t *codeTable) appendFOR(buf []byte, base uint64, floats bool) []byte {
	vals, exc, n := t.vals, t.exc, len(t.vals)
	if len(exc) == n {
		base = 0
	}
	// An exception's slot packs a zero offset.
	for _, e := range exc {
		vals[e.i] = base
	}
	// Four histograms of the offsets' bit lengths, summed after, keep an
	// increment from waiting on the one before.
	var hist [4][65]int32
	i := 0
	for ; i+4 <= n; i += 4 {
		hist[0][bits.Len64(vals[i]-base)]++
		hist[1][bits.Len64(vals[i+1]-base)]++
		hist[2][bits.Len64(vals[i+2]-base)]++
		hist[3][bits.Len64(vals[i+3]-base)]++
	}
	for ; i < n; i++ {
		hist[0][bits.Len64(vals[i]-base)]++
	}
	// above is the number of patches at width c: the exceptions and
	// every offset longer than c bits.
	w, best, above, outliers := 64, math.MaxInt, len(exc), 0
	for c := 64; c >= 0; c-- {
		if cost := (n*c+7)/8 + 9*above; cost <= best {
			w, best, outliers = c, cost, above-len(exc)
		}
		above += int(hist[0][c] + hist[1][c] + hist[2][c] + hist[3][c])
	}

	// The patch list, in index order: the exceptions merged with the
	// outliers, whose slots then pack a zero offset too.
	patches := t.patches[:0]
	if outliers == 0 {
		patches = append(patches, exc...)
	} else {
		next := 0
		for i, v := range vals {
			if (v-base)>>uint(w) == 0 {
				continue
			}
			for next < len(exc) && exc[next].i < i {
				patches = append(patches, exc[next])
				next++
			}
			if floats {
				v = math.Float64bits(float64(unzigzag(v)))
			}
			patches = append(patches, patch{i, v})
			vals[i] = base
		}
		patches = append(patches, exc[next:]...)
	}
	t.patches = patches
	buf = binary.AppendUvarint(buf, base)
	buf = appendPacked(append(buf, byte(w)), vals, uint(w), base)
	buf = binary.AppendUvarint(buf, uint64(len(patches)))
	last := -1
	for _, p := range patches {
		buf = binary.AppendUvarint(buf, uint64(p.i-last))
		buf = binary.LittleEndian.AppendUint64(buf, p.raw)
		last = p.i
	}
	return buf
}

// appendPacked appends the offsets of vals from base at w bits each —
// ⌈len(vals)·w/8⌉ bytes — offset i in bits i·w up to (i+1)·w, bit j of
// the column being bit j%8 of its byte j/8. Every offset must be below
// 2^w.
func appendPacked(buf []byte, vals []uint64, w uint, base uint64) []byte {
	if w == 0 {
		return buf
	}
	at, n := len(buf), (len(vals)*int(w)+7)/8
	buf = slices.Grow(buf, n+16)
	b := buf[:at+n+16]
	pos, i := at, 0
	// Up to 16 bits wide, eight offsets make w whole bytes, which two
	// words hold: a group's shifts do not wait on each other, nor on the
	// group before.
	if w <= 16 {
		for ; i+8 <= len(vals); i += 8 {
			v := vals[i : i+8 : i+8]
			lo := (v[0] - base) | (v[1]-base)<<w | (v[2]-base)<<(2*w) | (v[3]-base)<<(3*w)
			hi := (v[4] - base) | (v[5]-base)<<w | (v[6]-base)<<(2*w) | (v[7]-base)<<(3*w)
			binary.LittleEndian.PutUint64(b[pos:], lo|hi<<(4*w))
			binary.LittleEndian.PutUint64(b[pos+8:], hi>>(64-4*w))
			pos += int(w)
		}
	}
	// acc holds the k bits not yet in a whole byte. Up to 56 bits wide,
	// an offset and those fit one word: every offset stores the word at
	// the first byte not yet whole, with no branch. Wider ones flush the
	// word when it fills.
	var acc uint64
	var k uint
	if w <= 56 {
		for _, v := range vals[i:] {
			acc |= (v - base) << k
			k += w
			binary.LittleEndian.PutUint64(b[pos:], acc)
			pos += int(k >> 3)
			acc >>= k &^ 7
			k &= 7
		}
		return b[:at+n]
	}
	for _, v := range vals {
		v -= base
		acc |= v << k
		if k+w < 64 {
			k += w
			continue
		}
		binary.LittleEndian.PutUint64(b[pos:], acc)
		pos += 8
		k += w - 64
		acc = v >> (w - k)
	}
	binary.LittleEndian.PutUint64(b[pos:], acc)
	return b[:at+n]
}

// packedCol reads a packed column: value i is the w bits from bit i·w of
// b, least significant first. b runs on past the column, into the
// columns after it, so that most reads are one unaligned 8-byte load
// and a shift; the surplus bits are masked off.
type packedCol struct {
	b    []byte
	w    uint
	mask uint64
}

// at returns value i.
func (p packedCol) at(i int) uint64 {
	var u [1]uint64
	p.unpack(u[:], i)
	return u[0]
}

// unpack fills out with values first, first+1, … of the column. Up to
// 16 bits wide, a group of eight values that starts on a whole byte is
// the w bytes two words hold: each value is a shift of the pair, and no
// value waits on another. Otherwise each is read from the nine bytes its
// bits start in, as a shift of an unaligned 8-byte load and the byte
// after it. Neither path branches on a value's width.
func (p packedCol) unpack(out []uint64, first int) {
	b, w, mask := p.b, p.w, p.mask
	bit, i := uint(first)*w, 0
	if w <= 16 && bit&7 == 0 {
		for ; i+8 <= len(out) && bit/8+16 <= uint(len(b)); i += 8 {
			g := b[bit/8 : bit/8+16 : bit/8+16]
			lo := binary.LittleEndian.Uint64(g)
			mid := lo>>(4*w) | binary.LittleEndian.Uint64(g[8:])<<(64-4*w)
			o := out[i : i+8 : i+8]
			o[0], o[1], o[2], o[3] = lo&mask, lo>>w&mask, lo>>(2*w)&mask, lo>>(3*w)&mask
			o[4], o[5], o[6], o[7] = mid&mask, mid>>w&mask, mid>>(2*w)&mask, mid>>(3*w)&mask
			bit += 8 * w
		}
	}
	for ; i < len(out); i++ {
		k, s := bit>>3, bit&7
		if k+9 > uint(len(b)) {
			out[i] = p.tail(k, s)
		} else {
			out[i] = (binary.LittleEndian.Uint64(b[k:])>>s | uint64(b[k+8])<<(64-s)) & mask
		}
		bit += w
	}
}

// tail reads the value whose bits start at bit s of byte k, within nine
// bytes of the end of the payload.
func (p packedCol) tail(k, s uint) uint64 {
	var b [9]byte
	copy(b[:], p.b[min(k, uint(len(p.b))):])
	return (binary.LittleEndian.Uint64(b[:])>>s | uint64(b[8])<<(64-s)) & p.mask
}

// varintRoom reserves room for a column of n varints after buf and
// returns the widened slice with the index the first goes at; the column
// loop runs putUvarint, with no capacity check, and ends buf = b[:k].
func varintRoom(buf []byte, n int) (b []byte, k int) {
	k = len(buf)
	buf = slices.Grow(buf, n*binary.MaxVarintLen64)
	return buf[:k+n*binary.MaxVarintLen64], k
}

// putUvarint writes v as a varint at b[k:] — the bytes
// binary.AppendUvarint appends — and returns the index past it.
func putUvarint(b []byte, k int, v uint64) int {
	for v >= 0x80 {
		b[k] = byte(v) | 0x80
		v >>= 7
		k++
	}
	b[k] = byte(v)
	return k + 1
}

// uvarintAt reads the varint at b[off:] and returns it with the offset
// just past it; a truncated or overlong varint returns an offset beyond
// len(b).
func uvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	for shift := uint(0); off < len(b) && shift < 64; shift += 7 {
		c := b[off]
		off++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				break
			}
			return v | uint64(c)<<shift, off
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, len(b) + 1
}

// skipVarints steps over n varints starting at b[off:] without
// decoding them, by counting terminator bytes (high bit clear) eight at
// a time, and returns the offset past the last — or one beyond len(b)
// when fewer than n end inside b. Only the structure is checked: a
// stepped-over varint may be overlong.
func skipVarints(b []byte, off, n int) int {
	for n > 8 && off+8 <= len(b) {
		n -= bits.OnesCount64(^binary.LittleEndian.Uint64(b[off:]) & 0x8080808080808080)
		off += 8
	}
	for ; n > 0; off++ {
		if off >= len(b) {
			return len(b) + 1
		}
		if b[off] < 0x80 {
			n--
		}
	}
	return off
}

// decodeTimes materializes the time column — len(dst) zigzagged deltas
// as varints, starting at b[off:] — into dst and returns the offset past
// it, or one beyond len(b) at a truncated or overlong varint. The
// one-byte varint, by far the commonest, is decoded in line.
func decodeTimes(b []byte, off int, dst []obs.Event) int {
	prevT := int64(0)
	for i := range dst {
		var u uint64
		if off < len(b) && b[off] < 0x80 {
			u, off = uint64(b[off]), off+1
		} else if u, off = uvarintAt(b, off); off > len(b) {
			return off
		}
		prevT += unzigzag(u)
		dst[i].T = time.Duration(prevT)
	}
	return off
}

// decodePacked materializes packed column p into the field of dst that
// col names: each value is a code into dict for the dictionary columns,
// an offset from base for the frame-of-reference ones, the value itself
// for the type and the kind. It returns the index of the first event
// whose value does not fit its field — a type not below NumTypes, a kind
// past a byte, a code outside dict, a stored value past 2⁶⁴−1 or (seq)
// past 32 bits — or -1, and, for the type column, the mask of the types
// it holds. The column is unpacked a block at a time into a buffer on the
// stack, and each field's loop runs over the block.
func decodePacked(p packedCol, dst []obs.Event, col colSet, dict []uint64, base uint64) (int, uint32) {
	var buf [256]uint64
	var seen uint32
	for lo := 0; lo < len(dst); lo += len(buf) {
		vals := buf[:min(len(buf), len(dst)-lo)]
		p.unpack(vals, lo)
		evs := dst[lo : lo+len(vals)]
		bad := -1
		switch col {
		case colType:
			for i, u := range vals {
				if u >= uint64(obs.NumTypes) {
					bad = i
					break
				}
				evs[i].Type = obs.Type(u)
				seen |= 1 << u
			}
		case colKind:
			for i, u := range vals {
				if u > math.MaxUint8 {
					bad = i
					break
				}
				evs[i].Kind = packet.Kind(u)
			}
		case colLoc:
			for i, u := range vals {
				if u >= uint64(len(dict)) {
					bad = i
					break
				}
				evs[i].Loc = obs.Loc(dict[u])
			}
		case colConn:
			for i, u := range vals {
				if u >= uint64(len(dict)) {
					bad = i
					break
				}
				evs[i].Conn = int32(unzigzag(dict[u]))
			}
		case colSize:
			for i, u := range vals {
				if u >= uint64(len(dict)) {
					bad = i
					break
				}
				evs[i].Size = int32(unzigzag(dict[u]))
			}
		case colSeq:
			for i, u := range vals {
				if u += base; u < base || u > math.MaxUint32 {
					bad = i
					break
				}
				evs[i].Seq = int32(unzigzag(u))
			}
		case colID:
			for i, u := range vals {
				if u += base; u < base {
					bad = i
					break
				}
				evs[i].ID = u
			}
		case colVal:
			for i, u := range vals {
				if u += base; u < base {
					bad = i
					break
				}
				evs[i].Val = float64(unzigzag(u))
			}
		}
		if bad >= 0 {
			return lo + bad, seen
		}
	}
	return -1, seen
}

// chunkSpans is where a chunk's payload bytes go: the count varint's
// bytes and, per column, its bytes and encoding.
type chunkSpans struct {
	count int
	cols  [numColumns]struct {
		bytes int
		enc   Encoding
	}
}

// span records the bytes since the last boundary as column col's,
// stored as enc, when the decoder is recording spans.
func (d *decoder) span(col colSet, enc Encoding) {
	if d.spans != nil {
		c := &d.spans.cols[bits.TrailingZeros16(uint16(col))]
		c.bytes, c.enc = d.off-d.mark, enc
	}
	d.mark = d.off
}

// columnNames are the columns' names in chunk order.
var columnNames = [numColumns]string{"t", "type", "kind", "loc", "conn", "seq", "size", "id", "val"}

// decodeChunk parses one chunk payload into dst (reused across chunks;
// grown as needed) and returns the events along with the payload's
// declared event count. Only the columns in cols are materialized — the
// other fields of the returned events keep whatever dst held — and fully
// validated; the rest are stepped over with their structure checked
// (element counts, widths, bounds, no trailing bytes). A nonzero types
// mask reads the type column first and, when no event's type is in the
// mask, returns no events without looking at the other columns.
// Malformed payloads error, never panic, and never allocate beyond the
// declared payload's plausible event count.
func decodeChunk(payload []byte, dst []obs.Event, nLocs int, cols colSet, types uint32) ([]obs.Event, int, error) {
	return (&decoder{b: payload}).chunk(dst, nLocs, cols, types)
}

// chunk is decodeChunk over d.b; it records the column spans when
// d.spans is set.
func (d *decoder) chunk(dst []obs.Event, nLocs int, cols colSet, types uint32) ([]obs.Event, int, error) {
	payload := d.b
	n := d.count("event")
	if d.err != nil {
		return nil, 0, d.err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("tstore: empty chunk")
	}
	if d.spans != nil {
		d.spans.count = d.off
	}
	d.mark = d.off
	if cap(dst) < n {
		dst = make([]obs.Event, max(n, 2*cap(dst)))
	}
	dst = dst[:n]
	if types != 0 {
		cols |= colType
	}
	// dictColumn consumes a dictionary column — the entries, then a code
	// per event packed at the width the dictionary's length implies — and
	// records its span.
	var dictBuf [64]uint64
	dictColumn := func(col colSet, what, entries string, limit uint64) error {
		dict, dn := d.dictionary(col, entries, cols&col != 0, dictBuf[:0], limit, nLocs)
		if d.err != nil {
			return d.err
		}
		p := d.packed(n, bits.Len(uint(dn-1)))
		if d.err != nil {
			return d.err
		}
		if cols&col != 0 {
			if bad, _ := decodePacked(p, dst, col, dict, 0); bad >= 0 {
				return fmt.Errorf("tstore: %s code %d of event %d out of range [0,%d)", what, p.at(bad), bad, dn)
			}
		}
		d.span(col, EncPacked)
		return nil
	}

	// Time column. Under a type mask the type column first decides
	// whether the chunk is wanted at all: the times are stepped over
	// now and decoded after it.
	timeOff, timesLater := d.off, types != 0 && cols&colT != 0
	if cols&colT != 0 && !timesLater {
		d.off = decodeTimes(payload, d.off, dst)
	} else {
		d.off = skipVarints(payload, d.off, n)
	}
	if d.off > len(payload) {
		return nil, n, errVarint("time")
	}
	d.span(colT, EncVarint)

	// Type and kind columns.
	typeCol := d.packed(n, -1)
	if d.err != nil {
		return nil, n, d.err
	}
	if cols&colType != 0 {
		bad, seen := decodePacked(typeCol, dst, colType, nil, 0)
		if bad >= 0 {
			return nil, n, fmt.Errorf("tstore: unknown event type %d in chunk", typeCol.at(bad))
		}
		if types != 0 && seen&types == 0 {
			return dst[:0], n, nil
		}
	}
	d.span(colType, EncPacked)
	if timesLater && decodeTimes(payload, timeOff, dst) > len(payload) {
		return nil, n, errVarint("time")
	}
	kindCol := d.packed(n, -1)
	if d.err != nil {
		return nil, n, d.err
	}
	if cols&colKind != 0 {
		if bad, _ := decodePacked(kindCol, dst, colKind, nil, 0); bad >= 0 {
			return nil, n, fmt.Errorf("tstore: packet kind %d of event %d out of range", kindCol.at(bad), bad)
		}
	}
	d.span(colKind, EncPacked)

	// Location and connection columns: a dictionary, then one code per
	// event. A dictionary entry of a 32-bit field must fit it.
	if err := dictColumn(colLoc, "location", "location dictionary", math.MaxUint16); err != nil {
		return nil, n, err
	}
	if err := dictColumn(colConn, "connection", "connection dictionary", math.MaxUint32); err != nil {
		return nil, n, err
	}

	// Seq and id columns are frames of reference; size is a dictionary
	// column.
	if err := d.frameOfRef(dst, colSeq, cols&colSeq != 0, "seq"); err != nil {
		return nil, n, err
	}
	if err := dictColumn(colSize, "size", "size dictionary", math.MaxUint32); err != nil {
		return nil, n, err
	}
	if err := d.frameOfRef(dst, colID, cols&colID != 0, "id"); err != nil {
		return nil, n, err
	}

	// Value column: a tag, then a frame of reference or raw float64 bits.
	tag := d.bytes(1)
	if d.err != nil {
		return nil, n, d.err
	}
	switch tag[0] {
	case valTagInt:
		if err := d.frameOfRef(dst, colVal, cols&colVal != 0, "value"); err != nil {
			return nil, n, err
		}
	case valTagRaw:
		raw := d.bytes(8 * n)
		if d.err != nil {
			return nil, n, d.err
		}
		if cols&colVal != 0 {
			for i := range dst {
				dst[i].Val = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		d.span(colVal, EncRaw)
	default:
		return nil, n, fmt.Errorf("tstore: unknown value-column tag %d", tag[0])
	}
	if d.off != len(payload) {
		return nil, n, fmt.Errorf("tstore: %d trailing bytes after chunk payload", len(payload)-d.off)
	}
	return dst, n, nil
}

// packed steps over a packed column of n values of w bits — reading its
// width byte first when w is negative — and returns it for reading.
func (d *decoder) packed(n, w int) packedCol {
	if w < 0 {
		b := d.bytes(1)
		if b == nil {
			return packedCol{}
		}
		if w = int(b[0]); w > 64 {
			d.fail("tstore: packed column width %d above 64 at offset %d", w, d.off-1)
			return packedCol{}
		}
	}
	start := d.off
	if d.bytes((n*w+7)/8) == nil {
		return packedCol{}
	}
	return packedCol{b: d.b[start:], w: uint(w), mask: 1<<uint(w) - 1}
}

// dictionary reads the dictionary of column col, entries being its
// name: the length, then the entries, materialized into buf when keep
// is set and stepped over otherwise. An empty one is an error, and so is
// a kept entry above limit or, for the location column, outside the
// store's table of nLocs ids (when nLocs ≥ 0).
func (d *decoder) dictionary(col colSet, entries string, keep bool, buf []uint64, limit uint64, nLocs int) ([]uint64, int) {
	dn := d.count(entries)
	if d.err != nil {
		return nil, 0
	}
	if dn == 0 {
		d.fail("tstore: empty %s", entries)
		return nil, 0
	}
	if !keep {
		if d.off = skipVarints(d.b, d.off, dn); d.off > len(d.b) {
			d.fail("%v", errVarint(entries))
		}
		return nil, dn
	}
	for len(buf) < dn && d.err == nil {
		v := d.uvarint()
		switch {
		case col == colLoc && (v > limit || nLocs >= 0 && v >= uint64(nLocs)):
			d.fail("tstore: location id %d out of range [0,%d)", v, nLocs)
		case v > limit:
			d.fail("tstore: %s entry %d exceeds %d", entries, v, limit)
		}
		buf = append(buf, v)
	}
	return buf, dn
}

// frameOfRef consumes a frame-of-reference column — base, width, packed
// offsets, patch list — and records its span; it materializes the
// column into the field of dst that col names when keep is set.
func (d *decoder) frameOfRef(dst []obs.Event, col colSet, keep bool, what string) error {
	base := d.uvarint()
	p := d.packed(len(dst), -1)
	if d.err != nil {
		return d.err
	}
	if keep {
		if bad, _ := decodePacked(p, dst, col, nil, base); bad >= 0 {
			return fmt.Errorf("tstore: %s of event %d, base %d plus offset %d, out of range", what, bad, base, p.at(bad))
		}
	}
	np, err := d.patches(dst, col, keep)
	if err != nil {
		return err
	}
	enc := EncPacked
	if np > 0 {
		enc = EncPatched
	}
	d.span(col, enc)
	return nil
}

// patches reads a patch list — the count, then per entry its index gap
// (from -1 for the first) and 8 raw bytes — and, when apply is set,
// writes each entry's raw bits over the field col names of its event: a
// value's float64 bits, a seq's zigzag (which must fit 32 bits), an id.
// The count may not exceed len(dst), and every gap must be at least 1
// and keep the index inside dst; the list is checked in full either way.
// It returns the count.
func (d *decoder) patches(dst []obs.Event, col colSet, apply bool) (int, error) {
	np := d.count("patch")
	if d.err == nil && np > len(dst) {
		d.fail("tstore: %d patches in a chunk of %d events", np, len(dst))
	}
	at := -1
	for j := 0; j < np && d.err == nil; j++ {
		gap := d.uvarint()
		b := d.bytes(8)
		if d.err != nil {
			break
		}
		if gap == 0 || gap >= uint64(len(dst)-at) {
			d.fail("tstore: patch %d: index gap %d from %d leaves [0,%d) or goes back", j, gap, at, len(dst))
			break
		}
		at += int(gap)
		if !apply {
			continue
		}
		raw := binary.LittleEndian.Uint64(b)
		switch col {
		case colVal:
			dst[at].Val = math.Float64frombits(raw)
		case colSeq:
			if raw > math.MaxUint32 {
				d.fail("tstore: patched seq %d of event %d exceeds 32 bits", raw, at)
			}
			dst[at].Seq = int32(unzigzag(raw))
		case colID:
			dst[at].ID = raw
		}
	}
	return np, d.err
}

// errVarint reports a varint column that ran past the payload or held
// an overlong varint.
func errVarint(what string) error {
	return fmt.Errorf("tstore: truncated or overlong varint in the %s column", what)
}

// crcFooter is the checksum the trailer carries over the footer bytes.
func crcFooter(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
