package tstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
)

// FuzzNewStore throws arbitrary bytes at the chunked-store reader, from
// a store the writer wrote. Input that does not begin with the magic,
// however short, must be refused with an error naming the magic, and a
// file long enough to be a store whose header names any version but the
// one written must be refused with an error naming -trace-store.
// Whatever else the input — truncated files, flipped header fields,
// corrupt footers, hostile varints in the chunk index — NewStore must
// either return an error or yield a store whose full Scan completes
// without panicking. Allocation is bounded by the validated counts, so
// hostile lengths must not OOM either.
func FuzzNewStore(f *testing.F) {
	// Seed with a small real store so the fuzzer starts from a valid
	// file and mutates inward past the CRC and bounds checks.
	locs, events := synthTrace(2000, 3, 2, 1)
	_, b := buildStore(f, locs, events, 256)
	f.Add(b)
	old := slices.Clone(b)
	binary.LittleEndian.PutUint16(old[4:], 2)
	f.Add(old)
	for _, cut := range []int{0, 1, 2, 3, 4, 11, 12, 40, len(b) / 2, len(b) - 13, len(b) - 1} {
		f.Add(b[:cut])
	}
	// One patched chunk, its patch list corrupted in place so that the
	// store still opens: a count beyond the entries (the list runs into
	// the end of the payload), and a second index that does not advance.
	_, one := buildStore(f, locs[:1], patchedEvents(), 0)
	end := headerSize + 4 + int(binary.LittleEndian.Uint32(one[headerSize:]))
	long := slices.Clone(one)
	long[end-19] = 3
	back := slices.Clone(one)
	back[end-9] = 0
	f.Add(long)
	f.Add(back)
	// Empty store (header only, footer for zero chunks).
	var empty bytes.Buffer
	we := NewWriter(&empty, WriterOptions{})
	we.Begin()
	we.Close()
	f.Add(empty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStore(bytes.NewReader(data), int64(len(data)))
		if !bytes.HasPrefix(data, []byte(storeMagic)) {
			// Not a store at all: refused by the magic, whatever the length.
			if err == nil || !strings.Contains(err.Error(), `want "TOBC"`) {
				t.Fatalf("%d bytes without the magic: error %v, want one naming \"TOBC\"", len(data), err)
			}
			return
		}
		if len(data) >= headerSize+trailerSize && binary.LittleEndian.Uint16(data[4:]) != storeVersion {
			if err == nil || !strings.Contains(err.Error(), "-trace-store") {
				t.Fatalf("header version %d: error %v, want one naming -trace-store", binary.LittleEndian.Uint16(data[4:]), err)
			}
			return
		}
		if err != nil {
			return
		}
		// Opened: scanning every chunk must not panic; errors are fine
		// (chunk payloads are not covered by the footer CRC).
		n := uint64(0)
		s.Scan(Query{}, func(ev *obs.Event) error {
			n++
			return nil
		})
		if n > s.TotalEvents() {
			t.Fatalf("scan yielded %d events, store claims %d", n, s.TotalEvents())
		}
	})
}

// patchedEvents is a chunk of eight integer values with two exceptions,
// at indices 3 and 5: its payload ends in the 19-byte patch list
// 2 | 4, 8 raw bytes | 2, 8 raw bytes.
func patchedEvents() []obs.Event {
	events := make([]obs.Event, 8)
	for i := range events {
		events[i] = obs.Event{T: time.Duration(i) * time.Millisecond, Type: obs.CwndChange, Conn: 1, Val: float64(i)}
	}
	events[3].Val, events[5].Val = 3.5, -0.125
	return events
}

// malformedPatchLists returns payloads of patchedEvents' chunk with the
// patch list replaced by one the decoder must refuse, by name.
func malformedPatchLists() map[string][]byte {
	payload, _ := encodeChunk(nil, patchedEvents(), new(codeTable))
	base := payload[:len(payload)-19]
	raw := payload[len(payload)-8:]
	list := func(parts ...[]byte) []byte {
		return slices.Concat(append([][]byte{base}, parts...)...)
	}
	b := func(v ...byte) []byte { return v }
	nine := [][]byte{b(9)}
	for range 9 {
		nine = append(nine, b(1), raw)
	}
	return map[string][]byte{
		"no count":           base,
		"truncated entry":    payload[:len(payload)-1],
		"missing entry":      payload[:len(payload)-9],
		"count beyond chunk": list(nine...),
		"first gap zero":     list(b(1, 0), raw),
		"index repeats":      list(b(2, 4), raw, b(0), raw),
		"index goes back":    list(b(2, 4), raw, b(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), raw),
		"index at n":         list(b(1, 9), raw),
		"trailing byte":      append(slices.Clone(payload), 0),
	}
}

// referenceDecodeChunk is the chunk decoder written from DESIGN §14's
// description of the layout: every column through the error-latching
// decoder, every value checked, every packed value read a bit at a time.
// The fuzz target holds the projected decoder to it. After the event
// count and the time column (zigzagged deltas as varints): a packed
// column of n values at width w is ⌈n·w/8⌉ bytes, bit j of the column
// being bit j mod 8 of byte ⌊j/8⌋, value i its bits i·w to i·w+w−1,
// least significant first. Type and kind: a width byte (at most 64),
// then the packed values; a type below NumTypes, a kind at most 255.
// Location, connection, size: a dictionary (a count of at least one,
// then the entries as varints), then one code per event packed at the
// bit length of count−1, each below the count; a location entry is a
// location id, a connection or size entry the zigzag of an int32, so at
// most 2³²−1. Seq and id: a frame of reference — a base varint, a width
// byte, the offsets packed, and a patch list whose raw bits replace the
// slot's value; base plus offset must not pass 2⁶⁴−1, and a seq,
// zigzagged, nor 2³²−1 (a patched seq too). Value: a tag byte, 0 for a
// frame of reference over the zigzag of int64 values whose patches are
// raw float64 bits, 1 for raw float64 bits.
func referenceDecodeChunk(payload []byte, nLocs int) ([]obs.Event, error) {
	d := &decoder{b: payload}
	n := d.count("event")
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, fmt.Errorf("empty chunk")
	}
	dst := make([]obs.Event, n)
	prev := int64(0)
	for i := range dst {
		prev += d.varint()
		dst[i].T = time.Duration(prev)
	}
	readDict := func() []uint64 {
		dn := d.count("dictionary")
		if d.err == nil && dn == 0 {
			d.fail("empty dictionary")
		}
		if d.err != nil {
			return nil
		}
		dict := make([]uint64, dn)
		for i := range dict {
			dict[i] = d.uvarint()
		}
		return dict
	}
	locID := func(id uint64) error {
		if id > math.MaxUint16 || (nLocs >= 0 && id >= uint64(nLocs)) {
			return fmt.Errorf("location id %d out of range", id)
		}
		return nil
	}
	readPacked := func(w int) []uint64 {
		if w > 64 {
			d.fail("width %d", w)
		}
		b := d.bytes((n*w + 7) / 8)
		if d.err != nil {
			return nil
		}
		out := make([]uint64, n)
		for i := range out {
			for j := 0; j < w; j++ {
				bit := i*w + j
				out[i] |= uint64(b[bit/8]>>(bit%8)&1) << j
			}
		}
		return out
	}
	width := func() int {
		b := d.bytes(1)
		if d.err != nil {
			return 0
		}
		return int(b[0])
	}
	int32Entry := func(v uint64) error {
		if v > math.MaxUint32 {
			return fmt.Errorf("dictionary entry %d above 32 bits", v)
		}
		return nil
	}
	dictCol := func(check func(uint64) error) ([]uint64, error) {
		dict := readDict()
		if d.err != nil {
			return nil, d.err
		}
		for _, v := range dict {
			if err := check(v); err != nil {
				return nil, err
			}
		}
		w := 0
		for 1<<w < len(dict) {
			w++
		}
		codes := readPacked(w)
		if d.err != nil {
			return nil, d.err
		}
		for i, c := range codes {
			if c >= uint64(len(dict)) {
				return nil, fmt.Errorf("code %d out of range", c)
			}
			codes[i] = dict[c]
		}
		return codes, nil
	}
	forCol := func(limit uint64) ([]uint64, []patch, error) {
		base := d.uvarint()
		offs := readPacked(width())
		if d.err != nil {
			return nil, nil, d.err
		}
		for i, o := range offs {
			if o > math.MaxUint64-base || base+o > limit {
				return nil, nil, fmt.Errorf("base %d plus offset %d above %d", base, o, limit)
			}
			offs[i] = base + o
		}
		list, err := referencePatches(d, n)
		return offs, list, err
	}

	types := readPacked(width())
	for i, t := range types {
		if t >= uint64(obs.NumTypes) {
			return nil, fmt.Errorf("unknown event type %d", t)
		}
		dst[i].Type = obs.Type(t)
	}
	kinds := readPacked(width())
	for i, k := range kinds {
		if k > math.MaxUint8 {
			return nil, fmt.Errorf("kind %d", k)
		}
		dst[i].Kind = packet.Kind(k)
	}
	if d.err != nil {
		return nil, d.err
	}
	locs, err := dictCol(locID)
	if err != nil {
		return nil, err
	}
	for i, l := range locs {
		dst[i].Loc = obs.Loc(l)
	}
	conns, err := dictCol(int32Entry)
	if err != nil {
		return nil, err
	}
	for i, c := range conns {
		dst[i].Conn = int32(unzigzag(c))
	}
	seqs, list, err := forCol(math.MaxUint32)
	if err != nil {
		return nil, err
	}
	for _, p := range list {
		if p.raw > math.MaxUint32 {
			return nil, fmt.Errorf("patched seq %d", p.raw)
		}
		seqs[p.i] = p.raw
	}
	for i, q := range seqs {
		dst[i].Seq = int32(unzigzag(q))
	}
	sizes, err := dictCol(int32Entry)
	if err != nil {
		return nil, err
	}
	for i, z := range sizes {
		dst[i].Size = int32(unzigzag(z))
	}
	ids, list, err := forCol(math.MaxUint64)
	if err != nil {
		return nil, err
	}
	for _, p := range list {
		ids[p.i] = p.raw
	}
	for i, id := range ids {
		dst[i].ID = id
	}
	tag := d.bytes(1)
	if d.err != nil {
		return nil, d.err
	}
	switch tag[0] {
	case valTagInt:
		vals, list, err := forCol(math.MaxUint64)
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			dst[i].Val = float64(unzigzag(v))
		}
		for _, p := range list {
			dst[p.i].Val = math.Float64frombits(p.raw)
		}
	case valTagRaw:
		for i := range dst {
			b := d.bytes(8)
			if d.err != nil {
				return nil, d.err
			}
			dst[i].Val = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	default:
		return nil, fmt.Errorf("unknown value-column tag %d", tag[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%d trailing bytes", len(payload)-d.off)
	}
	return dst, nil
}

// referencePatches reads a patch list: a count of at most n, then per
// patch an index gap (the first from −1) of at least 1 that keeps the
// index below n, and 8 raw little-endian bytes.
func referencePatches(d *decoder, n int) ([]patch, error) {
	count := d.count("patch")
	if d.err != nil {
		return nil, d.err
	}
	if count > n {
		return nil, fmt.Errorf("%d patches among %d events", count, n)
	}
	var list []patch
	idx := uint64(0)
	for j := 0; j < count; j++ {
		gap := d.uvarint()
		b := d.bytes(8)
		if d.err != nil {
			return nil, d.err
		}
		if j == 0 {
			idx = gap - 1 // gap 0 wraps and fails the bound below
		} else if gap == 0 {
			return nil, fmt.Errorf("patch %d repeats index %d", j, idx)
		} else {
			idx += gap
		}
		if gap > uint64(n) || idx >= uint64(n) {
			return nil, fmt.Errorf("patch %d beyond the chunk", j)
		}
		list = append(list, patch{int(idx), binary.LittleEndian.Uint64(b)})
	}
	return list, nil
}

// sameEvent compares two events bit for bit (a raw value column can
// carry NaNs, which == would call unequal).
func sameEvent(a, b obs.Event) bool {
	av, bv := a.Val, b.Val
	a.Val, b.Val = 0, 0
	return a == b && math.Float64bits(av) == math.Float64bits(bv)
}

// projectedFields copies from src the fields cols names and leaves the
// rest of dst alone.
func projectedFields(dst, src obs.Event, cols colSet) obs.Event {
	if cols&colT != 0 {
		dst.T = src.T
	}
	if cols&colType != 0 {
		dst.Type = src.Type
	}
	if cols&colKind != 0 {
		dst.Kind = src.Kind
	}
	if cols&colLoc != 0 {
		dst.Loc = src.Loc
	}
	if cols&colConn != 0 {
		dst.Conn = src.Conn
	}
	if cols&colSeq != 0 {
		dst.Seq = src.Seq
	}
	if cols&colSize != 0 {
		dst.Size = src.Size
	}
	if cols&colID != 0 {
		dst.ID = src.ID
	}
	if cols&colVal != 0 {
		dst.Val = src.Val
	}
	return dst
}

// fuzzSeedPayloads returns valid chunk payloads to start from: three the
// encoder writes — an all-integer value column; one with the synthetic
// trace's fractional values (patched, past a few events), a negative
// connection, a connection range too wide for the code table, a seq and
// an id far from the others (patched) and a size of its own; and one with
// no integer value at all (raw) — then the first three chunks of a store
// the writer writes at 256 events a chunk, whose value columns are packed,
// raw and patched.
func fuzzSeedPayloads(t testing.TB, n int) [][]byte {
	var out [][]byte
	for _, seed := range []int64{1, 2, 3} {
		_, events := synthTrace(n, 3, 4, seed)
		for i := range events {
			switch seed {
			case 1:
				events[i].Val = math.Trunc(events[i].Val)
			case 3:
				events[i].Val += 0.75
			}
		}
		if seed == 2 && n > 9 {
			events[7].Val = 0.25
			events[8].Conn = -2
			events[9].Conn = 1 << 20
			events[3].Seq = math.MinInt32
			events[4].ID = math.MaxUint64
			events[5].Size = 1 << 30
		}
		payload, _ := encodeChunk(nil, events, new(codeTable))
		out = append(out, payload)
	}
	locs, events := synthTrace(2000, 3, 4, 1)
	for i := range events[:256] {
		events[i].Val = float64(i % 7)
		events[256+i].Val += 0.25
	}
	s, raw := buildStore(t, locs, events, 256)
	for _, c := range s.Chunks()[:3] {
		out = append(out, raw[c.Offset+4:c.Offset+4+c.Size])
	}
	return out
}

// checkProjectedDecode holds one (payload, column set, type mask) to the decoder's contract. The all-columns decode must accept
// nothing the reference decoder rejects, and must agree with it event
// for event. Whenever the all-columns decode accepts, the projection
// accepts, returns exactly the projected fields of the same events (and
// writes no other field of the buffer it was lent), and abandons the
// chunk only when no event has a type in the mask. Whatever a
// projection accepts has the event count the payload declares. It
// reports whether the all-columns decode accepted.
func checkProjectedDecode(t *testing.T, payload []byte, cols colSet, types uint32) bool {
	t.Helper()
	const nLocs = 5
	full, nFull, errFull := decodeChunk(payload, nil, nLocs, colAll, 0)
	ref, errRef := referenceDecodeChunk(payload, nLocs)
	if errFull == nil {
		if errRef != nil {
			t.Fatalf("all-columns decode accepted a payload the reference rejects: %v", errRef)
		}
		if len(full) != len(ref) || nFull != len(ref) {
			t.Fatalf("all-columns decode: %d events (declared %d), reference %d", len(full), nFull, len(ref))
		}
		for i := range full {
			if !sameEvent(full[i], ref[i]) {
				t.Fatalf("event %d: all-columns decode %+v, reference %+v", i, full[i], ref[i])
			}
		}
	}

	poison := obs.Event{T: -77, Val: -7.5, ID: 1<<63 + 5, Conn: -99, Seq: -98, Size: -97, Loc: 0xfffe, Type: 0xfd, Kind: 0xfc}
	buf := make([]obs.Event, len(payload))
	for i := range buf {
		buf[i] = poison
	}
	got, n, err := decodeChunk(payload, buf, nLocs, cols, types)
	if err != nil {
		if errFull == nil {
			t.Fatalf("cols=%#x types=%#x rejected a payload the all-columns decode accepts: %v", cols, types, err)
		}
		return false
	}
	if declared, _ := binary.Uvarint(payload); uint64(n) != declared {
		t.Fatalf("cols=%#x types=%#x: accepted with count %d, payload declares %d", cols, types, n, declared)
	}
	if len(got) != n && (len(got) != 0 || types == 0) {
		t.Fatalf("cols=%#x types=%#x: %d events returned of %d declared", cols, types, len(got), n)
	}
	if errFull != nil {
		return false
	}
	if len(got) == 0 {
		for i := range full {
			if types&(1<<full[i].Type) != 0 {
				t.Fatalf("types=%#x: chunk abandoned, but event %d has type %v", types, i, full[i].Type)
			}
		}
		return true
	}
	if types != 0 {
		cols |= colType
	}
	for i := range got {
		if want := projectedFields(poison, full[i], cols); !sameEvent(got[i], want) {
			t.Fatalf("cols=%#x types=%#x event %d: got %+v, want %+v", cols, types, i, got[i], want)
		}
	}
	return true
}

// TestDecodeChunkEveryProjection runs the decoder's contract over every
// one of the 512 column sets, with and without a type mask (one that
// some event matches, one that none does), on valid payloads and on
// each of their truncations; then a few column sets over
// every event count up to 70, so that the word-at-a-time skip and the
// packed reads near the payload's end meet every remainder.
func TestDecodeChunkEveryProjection(t *testing.T) {
	for _, payload := range fuzzSeedPayloads(t, 43) {
		for cols := colSet(0); cols <= colAll; cols++ {
			for _, types := range []uint32{0, 1 << obs.Transmit, 1 << obs.Timeout} {
				if !checkProjectedDecode(t, payload, cols, types) {
					t.Fatalf("cols=%#x types=%#x: a payload the encoder wrote was rejected", cols, types)
				}
			}
		}
		for cut := 0; cut < len(payload); cut++ {
			for _, cols := range []colSet{0, colVal, colT | colLoc, colAll} {
				if checkProjectedDecode(t, payload[:cut], cols, 1<<obs.Drop) {
					t.Fatalf("payload truncated to %d of %d bytes accepted by the all-columns decode", cut, len(payload))
				}
			}
		}
	}
	for n := 1; n <= 70; n++ {
		for _, payload := range fuzzSeedPayloads(t, n)[:3] {
			for _, cols := range []colSet{0, colType, colVal, colT | colLoc, colConn | colID, colSeq | colSize, colAll} {
				if !checkProjectedDecode(t, payload, cols, 0) {
					t.Fatalf("%d events, cols=%#x: a payload the encoder wrote was rejected", n, cols)
				}
			}
		}
	}
}

// packedEvents is a chunk of ten events for the malformed seeds: three
// locations (a 2-bit code column), two sizes, distinct seqs and ids.
func packedEvents() []obs.Event {
	events := make([]obs.Event, 10)
	for i := range events {
		events[i] = obs.Event{T: time.Duration(i) * time.Millisecond, Type: obs.Transmit, Loc: obs.Loc(i % 3),
			Conn: int32(1 + i%2), Seq: int32(1000 + 7*i), Size: int32(40 + 960*(i%2)), ID: uint64(100 + i), Val: float64(i)}
	}
	return events
}

// malformedPackedColumns returns payloads of packedEvents' chunk, each
// broken in one of its packed columns in a way the decoder must refuse.
func malformedPackedColumns() map[string][]byte {
	payload, _ := encodeChunk(nil, packedEvents(), new(codeTable))
	sp := chunkLayout(payload)
	start := make([]int, numColumns+1)
	start[0] = sp.count
	for i, c := range sp.cols {
		start[i+1] = start[i] + c.bytes
	}
	const typeCol, locCol, seqCol, sizeCol = 1, 3, 5, 6
	edit := func(at int, f func(b []byte)) []byte {
		b := slices.Clone(payload)
		f(b[at:])
		return b
	}
	// replace puts a varint in place of the one at b[at:].
	replace := func(at int, v uint64) []byte {
		_, end := uvarintAt(payload, at)
		return slices.Concat(payload[:at], binary.AppendUvarint(nil, v), payload[end:])
	}
	return map[string][]byte{
		// The type column's width byte.
		"width above 64": edit(start[typeCol], func(b []byte) { b[0] = 65 }),
		// The type column one byte short of ⌈n·w/8⌉, the payload cut there.
		"packed bytes short": payload[:start[typeCol+1]-1],
		// Three locations: count, three one-byte entries, then 2-bit codes;
		// the first code becomes 3.
		"code beyond dictionary": edit(start[locCol]+4, func(b []byte) { b[0] |= 3 }),
		// The seq base moved to 2³²−1: every nonzero offset passes 32 bits.
		"seq base overflows": replace(start[seqCol], math.MaxUint32),
		// The size dictionary's first entry (after its count) past 32 bits.
		"size entry overflows": replace(start[sizeCol]+1, 1<<32),
		// The id column's offsets from a base near 2⁶⁴ wrap around.
		"id base wraps": replace(start[sizeCol+1], math.MaxUint64-3),
	}
}

// TestPackedColumnsRejectMalformed: every malformed packed column is an
// error for the decoder and for the reference decoder.
func TestPackedColumnsRejectMalformed(t *testing.T) {
	payload, _ := encodeChunk(nil, packedEvents(), new(codeTable))
	if _, _, err := decodeChunk(payload, nil, -1, colAll, 0); err != nil {
		t.Fatalf("the unbroken payload: %v", err)
	}
	for name, payload := range malformedPackedColumns() {
		if _, _, err := decodeChunk(payload, nil, -1, colAll, 0); err == nil {
			t.Errorf("%s: decode accepted it", name)
		}
		if _, err := referenceDecodeChunk(payload, -1); err == nil {
			t.Errorf("%s: reference decoder accepted it", name)
		}
	}
}

// FuzzDecodeChunkProjected throws arbitrary chunk payloads at the
// projected decoder under an arbitrary column set and type mask: it must never panic, and must keep
// the contract checkProjectedDecode spells out. The varint reader is
// held to encoding/binary's on the same bytes.
func FuzzDecodeChunkProjected(f *testing.F) {
	for _, payload := range fuzzSeedPayloads(f, 43) {
		f.Add(payload, uint16(colAll), uint32(0))
		f.Add(payload, uint16(colVal), uint32(1<<obs.Enqueue))
		f.Add(payload, uint16(colT|colLoc), uint32(1<<obs.Timeout))
		f.Add(payload[:len(payload)/2], uint16(colID), uint32(0))
		f.Add(append(payload[:len(payload):len(payload)], 0), uint16(0), uint32(0))
	}
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint16(colT), uint32(0))
	// One event whose location dictionary entry (after the count, the
	// time, the type and kind columns and the dictionary count) is an
	// overlong zero: only a decode that reads the dictionary may object.
	one, _ := encodeChunk(nil, []obs.Event{{T: 5, Type: obs.Deliver, Conn: 1}}, new(codeTable))
	sp := chunkLayout(one)
	at := sp.count + sp.cols[0].bytes + sp.cols[1].bytes + sp.cols[2].bytes
	overlong := slices.Concat(one[:at+1], []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, one[at+1:])
	f.Add(overlong, uint16(colAll), uint32(0))
	f.Add(overlong, uint16(colVal), uint32(0))
	for _, payload := range malformedPatchLists() {
		f.Add(payload, uint16(colAll), uint32(0))
		f.Add(payload, uint16(colT), uint32(0))
	}
	for _, payload := range malformedPackedColumns() {
		f.Add(payload, uint16(colAll), uint32(0))
		f.Add(payload, uint16(colKind), uint32(0))
	}

	f.Fuzz(func(t *testing.T, payload []byte, colBits uint16, types uint32) {
		v, off := uvarintAt(payload, 0)
		if w, k := binary.Uvarint(payload); k > 0 {
			if v != w || off != k {
				t.Fatalf("uvarintAt = (%d, %d), binary.Uvarint = (%d, %d)", v, off, w, k)
			}
		} else if off <= len(payload) {
			t.Fatalf("uvarintAt accepted (%d, %d) what binary.Uvarint rejects (%d)", v, off, k)
		}
		checkProjectedDecode(t, payload, colSet(colBits)&colAll, types)
	})
}
