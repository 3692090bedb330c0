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
// (zero), uint32 target events per chunk. Version 2 added the patched
// value column (valTagPatched); a version-1 store holds only tags 0 and
// 1, so one decoder reads both.
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
	storeVersion = 2

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

// valTag* select the value-column encoding: a chunk whose every Val is
// an exact small integer (queue lengths, window sizes, timeout counts)
// stores zigzag varints; one with a few other values (fractional cwnd
// samples) stores the varints, 0 in each exception's slot, then a patch
// list: the exception count and, per exception, its index gap and raw
// float64 bits; one where the patch list would cost more stores every
// value as raw float64 bits.
const (
	valTagInt     byte = 0
	valTagRaw     byte = 1
	valTagPatched byte = 2
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

// codeTable is the encoder's scratch for the dictionary columns: slot
// v-lo holds the code of value v (plus one; zero is "absent") while a
// column is being written, and every slot is zero between columns. The
// value column lists the indices of its exceptions in it.
type codeTable []uint32

// span returns the first n slots, growing the table geometrically.
func (t *codeTable) span(n int) []uint32 {
	if cap(*t) < n {
		*t = make([]uint32, max(n, 2*cap(*t)))
	}
	return (*t)[:n]
}

// maxCodeSpan is the widest value range (hi-lo+1) a dictionary column
// codes by direct index. Location ids are 16-bit, so they always fit;
// connection ids beyond it take the sorted-slice path.
const maxCodeSpan = 1 << 16

// encodeChunk appends the columnar payload for events to buf and
// returns it along with the chunk's index entry. Events carry
// store-level location ids (the writer re-interns before staging).
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
	// Type and kind columns: one byte each (seven types, two kinds).
	for i := range events {
		buf = append(buf, byte(events[i].Type))
	}
	for i := range events {
		buf = append(buf, byte(events[i].Kind))
	}
	// Location and connection columns: per-chunk dictionary (the sorted
	// distinct values) followed by one dictionary code per event. A run
	// touches few distinct locations and connections per chunk, so codes
	// are almost always one byte. Connections are stored zigzagged, and
	// the dictionary is sorted by the stored value: that is the order of
	// the ids themselves only when none is negative.
	{
		lo := info.LocLo
		codes := tab.span(int(info.LocHi-lo) + 1)
		for i := range events {
			codes[uint16(events[i].Loc)-lo] = 1
		}
		buf = appendDict(buf, codes, uint64(lo), 0)
		b, k := varintRoom(buf, len(events))
		for i := range events {
			k = putUvarint(b, k, uint64(codes[uint16(events[i].Loc)-lo]-1))
		}
		buf = b[:k]
		clear(codes)
	}
	if lo, n := info.ConnLo, int64(info.ConnHi)-int64(info.ConnLo)+1; lo >= 0 && n <= maxCodeSpan {
		codes := tab.span(int(n))
		for i := range events {
			codes[events[i].Conn-lo] = 1
		}
		buf = appendDict(buf, codes, uint64(lo), 1)
		b, k := varintRoom(buf, len(events))
		for i := range events {
			k = putUvarint(b, k, uint64(codes[events[i].Conn-lo]-1))
		}
		buf = b[:k]
		clear(codes)
	} else {
		dict := make([]uint64, len(events))
		for i := range events {
			dict[i] = zigzag(int64(events[i].Conn))
		}
		slices.Sort(dict)
		dict = slices.Compact(dict)
		buf = binary.AppendUvarint(buf, uint64(len(dict)))
		for _, v := range dict {
			buf = binary.AppendUvarint(buf, v)
		}
		b, k := varintRoom(buf, len(events))
		for i := range events {
			code, _ := slices.BinarySearch(dict, zigzag(int64(events[i].Conn)))
			k = putUvarint(b, k, uint64(code))
		}
		buf = b[:k]
	}
	// Seq, size, id columns.
	b, k = varintRoom(buf, len(events))
	for i := range events {
		k = putUvarint(b, k, zigzag(int64(events[i].Seq)))
	}
	buf = b[:k]
	b, k = varintRoom(buf, len(events))
	for i := range events {
		k = putUvarint(b, k, zigzag(int64(events[i].Size)))
	}
	buf = b[:k]
	b, k = varintRoom(buf, len(events))
	for i := range events {
		k = putUvarint(b, k, events[i].ID)
	}
	buf = b[:k]
	// Value column: a varint for every exact integer of magnitude at most
	// 2⁵² other than −0, and 0 in the slot of every other value — an
	// exception. Without exceptions that is the column (tag 0); with
	// some, the patch list follows (tag 2), unless raw bits are shorter.
	tagAt := len(buf)
	exc := tab.span(len(events))[:0]
	patchLen, last := 0, -1
	b, k = varintRoom(append(buf, valTagInt), len(events))
	for i := range events {
		v := events[i].Val
		if v != math.Trunc(v) || math.Abs(v) > 1<<52 || math.Signbit(v) && v == 0 {
			exc = append(exc, uint32(i))
			patchLen += uvarintLen(uint64(i-last)) + 8
			last = i
			b[k] = 0
			k++
			continue
		}
		k = putUvarint(b, k, zigzag(int64(v)))
	}
	buf = b[:k]
	if len(exc) > 0 {
		if patched := k - tagAt + uvarintLen(uint64(len(exc))) + patchLen; patched <= 1+8*len(events) {
			buf[tagAt] = valTagPatched
			buf = binary.AppendUvarint(buf, uint64(len(exc)))
			last = -1
			for _, i := range exc {
				buf = binary.AppendUvarint(buf, uint64(int(i)-last))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(events[i].Val))
				last = int(i)
			}
		} else {
			buf = append(buf[:tagAt], valTagRaw)
			for i := range events {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(events[i].Val))
			}
		}
		clear(exc)
	}
	return buf, info
}

// uvarintLen is the length of v as a varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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

// appendDict writes a dictionary column's prefix from the marks in
// codes (nonzero: value lo+i occurs in the chunk): the count of
// distinct values, then the values in ascending order, each stored as
// (lo+i)<<shift. It leaves every marked slot holding its code plus one.
func appendDict(buf []byte, codes []uint32, lo uint64, shift uint) []byte {
	distinct := 0
	for _, mark := range codes {
		if mark != 0 {
			distinct++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(distinct))
	next := uint32(0)
	for i, mark := range codes {
		if mark != 0 {
			next++
			codes[i] = next
			buf = binary.AppendUvarint(buf, (lo+uint64(i))<<shift)
		}
	}
	return buf
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

// decodeColumn materializes one varint column — len(dst) varints
// starting at b[off:] — into the field of dst that col names, and
// returns the offset past it, or one beyond len(b) at a truncated or
// overlong varint. For the dictionary columns the varints are codes
// into dict; bad is the index of the first event whose code is outside
// it, or -1. One loop serves every column so that the one-byte varint,
// by far the commonest, is decoded in line; the switch goes the same
// way on every iteration.
func decodeColumn(b []byte, off int, dst []obs.Event, col colSet, dict []uint64) (next, bad int) {
	prevT := int64(0)
	for i := range dst {
		var u uint64
		if off < len(b) && b[off] < 0x80 {
			u, off = uint64(b[off]), off+1
		} else if u, off = uvarintAt(b, off); off > len(b) {
			return off, -1
		}
		ev := &dst[i]
		switch col {
		case colT:
			prevT += unzigzag(u)
			ev.T = time.Duration(prevT)
		case colLoc:
			if u >= uint64(len(dict)) {
				return off, i
			}
			ev.Loc = obs.Loc(dict[u])
		case colConn:
			if u >= uint64(len(dict)) {
				return off, i
			}
			ev.Conn = int32(unzigzag(dict[u]))
		case colSeq:
			ev.Seq = int32(unzigzag(u))
		case colSize:
			ev.Size = int32(unzigzag(u))
		case colID:
			ev.ID = u
		case colVal:
			ev.Val = float64(unzigzag(u))
		}
	}
	return off, -1
}

// decodeChunk parses one chunk payload into dst (reused across chunks;
// grown as needed) and returns the events along with the payload's
// declared event count. Only the columns in cols are materialized — the
// other fields of the returned events keep whatever dst held — and
// fully validated; the rest are stepped over with their structure
// checked (element counts, bounds, no trailing bytes). A nonzero types
// mask reads the type column first and, when no event's type is in the
// mask, returns no events without looking at the other columns.
// Malformed payloads error, never panic, and never allocate beyond the
// declared payload's plausible event count.
func decodeChunk(payload []byte, dst []obs.Event, nLocs int, cols colSet, types uint32) ([]obs.Event, int, error) {
	d := &decoder{b: payload}
	n := d.count("event")
	if d.err != nil {
		return nil, 0, d.err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("tstore: empty chunk")
	}
	if cap(dst) < n {
		dst = make([]obs.Event, max(n, 2*cap(dst)))
	}
	dst = dst[:n]
	if types != 0 {
		cols |= colType
	}
	// varints consumes one column of n varints, decoding it when cols
	// asks for it.
	varints := func(col colSet, what string, dict []uint64) error {
		bad := -1
		if cols&col != 0 {
			d.off, bad = decodeColumn(payload, d.off, dst, col, dict)
		} else {
			d.off = skipVarints(payload, d.off, n)
		}
		if d.off > len(payload) {
			return errVarint(what)
		}
		if bad >= 0 {
			return fmt.Errorf("tstore: %s code of event %d out of range [0,%d)", what, bad, len(dict))
		}
		return nil
	}

	// Time column. Under a type mask the type column first decides
	// whether the chunk is wanted at all: the times are stepped over
	// now and decoded after it.
	timeOff, timesLater := d.off, types != 0 && cols&colT != 0
	if timesLater {
		cols &^= colT
	}
	if err := varints(colT, "time", nil); err != nil {
		return nil, n, err
	}

	// Type and kind columns: one byte per event.
	typeCol := d.bytes(n)
	if cols&colType != 0 && d.err == nil {
		var seen uint32
		for i, t := range typeCol {
			if t >= byte(obs.NumTypes) {
				return nil, n, fmt.Errorf("tstore: unknown event type %d in chunk", t)
			}
			dst[i].Type = obs.Type(t)
			seen |= 1 << t
		}
		if types != 0 && seen&types == 0 {
			return dst[:0], n, nil
		}
	}
	if timesLater {
		if off, _ := decodeColumn(payload, timeOff, dst, colT, nil); off > len(payload) {
			return nil, n, errVarint("time")
		}
	}
	kindCol := d.bytes(n)
	if cols&colKind != 0 && d.err == nil {
		for i, k := range kindCol {
			dst[i].Kind = packet.Kind(k)
		}
	}

	// Location and connection columns: a dictionary, then one code per
	// event. Dictionaries are small; the stack array keeps the usual
	// chunk's free of allocation.
	var dictBuf [64]uint64
	for _, col := range [...]colSet{colLoc, colConn} {
		what, entries := "location", "location dictionary"
		if col == colConn {
			what, entries = "connection", "connection dictionary"
		}
		dn := d.count(entries)
		if d.err != nil {
			return nil, n, d.err
		}
		if dn == 0 {
			return nil, n, fmt.Errorf("tstore: empty %s", entries)
		}
		dict := dictBuf[:0]
		if cols&col == 0 {
			d.off = skipVarints(payload, d.off, dn)
		} else {
			for len(dict) < dn && d.off <= len(payload) {
				var v uint64
				v, d.off = uvarintAt(payload, d.off)
				if col == colLoc && (v > math.MaxUint16 || (nLocs >= 0 && v >= uint64(nLocs))) {
					return nil, n, fmt.Errorf("tstore: location id %d out of range [0,%d)", v, nLocs)
				}
				dict = append(dict, v)
			}
		}
		if d.off > len(payload) {
			return nil, n, errVarint(entries)
		}
		if err := varints(col, what, dict); err != nil {
			return nil, n, err
		}
	}

	// Seq, size, id columns: plain varints.
	if err := varints(colSeq, "seq", nil); err != nil {
		return nil, n, err
	}
	if err := varints(colSize, "size", nil); err != nil {
		return nil, n, err
	}
	if err := varints(colID, "id", nil); err != nil {
		return nil, n, err
	}

	// Value column: a tag, then varints, raw float64 bits, or varints and
	// a patch list.
	tag := d.bytes(1)
	if d.err != nil {
		return nil, n, d.err
	}
	switch tag[0] {
	case valTagInt, valTagPatched:
		if err := varints(colVal, "value", nil); err != nil {
			return nil, n, err
		}
		if tag[0] == valTagPatched {
			if err := d.patches(dst, cols&colVal != 0); err != nil {
				return nil, n, err
			}
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
	default:
		return nil, n, fmt.Errorf("tstore: unknown value-column tag %d", tag[0])
	}
	if d.off != len(payload) {
		return nil, n, fmt.Errorf("tstore: %d trailing bytes after chunk payload", len(payload)-d.off)
	}
	return dst, n, nil
}

// patches reads the patch list of a valTagPatched value column — the
// exception count, then per exception its index gap (from -1 for the
// first) and raw float64 bits — and, when apply is set, writes each raw
// value over the varint decoded into its slot of dst. The count may not
// exceed len(dst), and every gap must be at least 1 and keep the index
// inside dst; the list is checked in full either way.
func (d *decoder) patches(dst []obs.Event, apply bool) error {
	np := d.count("value exception")
	if d.err == nil && np > len(dst) {
		d.fail("tstore: %d value exceptions in a chunk of %d events", np, len(dst))
	}
	at := -1
	for j := 0; j < np && d.err == nil; j++ {
		gap := d.uvarint()
		raw := d.bytes(8)
		if d.err != nil {
			break
		}
		if gap == 0 || gap >= uint64(len(dst)-at) {
			d.fail("tstore: value exception %d: index gap %d from %d leaves [0,%d) or goes back", j, gap, at, len(dst))
			break
		}
		at += int(gap)
		if apply {
			dst[at].Val = math.Float64frombits(binary.LittleEndian.Uint64(raw))
		}
	}
	return d.err
}

// errVarint reports a varint column that ran past the payload or held
// an overlong varint.
func errVarint(what string) error {
	return fmt.Errorf("tstore: truncated or overlong varint in the %s column", what)
}

// crcFooter is the checksum the trailer carries over the footer bytes.
func crcFooter(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
