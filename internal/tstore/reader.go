package tstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"tahoedyn/internal/obs"
)

// Store is an opened chunked trace store: the footer index and location
// table live in memory, chunk payloads are read on demand. Scans
// materialize at most one chunk at a time, so working memory is
// independent of the trace size. A Store is safe for concurrent scans
// and folds over an io.ReaderAt: each takes a scratch of its own from
// the store's free list and returns it when done.
type Store struct {
	r     io.ReaderAt
	c     io.Closer
	locs  []string
	index []ChunkInfo
	total uint64
	// chunkN is the writer's target events per chunk (header field).
	chunkN int
	// sorted reports whether chunk time ranges are non-overlapping and
	// ascending — true for any store a tracer wrote — enabling early
	// scan termination at q.To.
	sorted bool

	// free holds the scratch of finished scans for the next ones.
	mu   sync.Mutex
	free []*scratch
}

// Open opens a store file. The returned Store keeps the file open;
// Close releases it.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := NewStore(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.c = f
	return s, nil
}

// NewStore opens a store over any random-access byte source of the
// given size (a file, an mmap, a test buffer).
func NewStore(r io.ReaderAt, size int64) (*Store, error) {
	// The magic comes first, so that a file of another kind is refused
	// by name whatever its length.
	var hdr [headerSize]byte
	head := hdr[:min(max(size, 0), headerSize)]
	if n, err := r.ReadAt(head, 0); n < len(head) {
		return nil, fmt.Errorf("tstore: reading header: %w", err)
	}
	if magic := head[:min(len(head), len(storeMagic))]; string(magic) != storeMagic {
		return nil, fmt.Errorf("tstore: bad magic %q (want %q)", magic, storeMagic)
	}
	if size < headerSize+trailerSize {
		return nil, fmt.Errorf("tstore: file too short (%d bytes) to be a store", size)
	}
	if version := binary.LittleEndian.Uint16(hdr[4:6]); version != storeVersion {
		return nil, fmt.Errorf("tstore: store format version %d, but only version %d is read: re-run tahoe-sim -trace-store to write the store again", version, storeVersion)
	}
	chunkN := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if chunkN <= 0 || chunkN > maxChunkPayload {
		return nil, fmt.Errorf("tstore: implausible chunk size %d in header", chunkN)
	}

	var tr [trailerSize]byte
	if _, err := r.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("tstore: reading trailer: %w", err)
	}
	if string(tr[8:12]) != footerMagic {
		return nil, fmt.Errorf("tstore: bad trailer magic %q — store truncated or not finalized (was Close called?)", tr[8:12])
	}
	footLen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	footOff := size - trailerSize - footLen
	if footLen < 0 || footOff < headerSize {
		return nil, fmt.Errorf("tstore: implausible footer length %d", footLen)
	}
	foot := make([]byte, footLen)
	if _, err := r.ReadAt(foot, footOff); err != nil {
		return nil, fmt.Errorf("tstore: reading footer: %w", err)
	}
	if crc := crcFooter(foot); crc != binary.LittleEndian.Uint32(tr[0:4]) {
		return nil, fmt.Errorf("tstore: footer checksum mismatch (file corrupted)")
	}

	s := &Store{r: r, chunkN: chunkN, sorted: true}
	d := &decoder{b: foot}
	nLocs := d.count("location")
	for i := 0; i < nLocs && d.err == nil; i++ {
		n := d.count("location name byte")
		s.locs = append(s.locs, string(d.bytes(n)))
	}
	nChunks := d.count("chunk")
	if d.err == nil {
		s.index = make([]ChunkInfo, 0, nChunks)
	}
	prevEnd := time.Duration(math.MinInt64)
	for i := 0; i < nChunks && d.err == nil; i++ {
		c := ChunkInfo{
			Offset:   int64(d.uvarint()),
			Size:     int64(d.uvarint()),
			Count:    int(d.uvarint()),
			MinT:     time.Duration(d.varint()),
			MaxT:     time.Duration(d.varint()),
			TypeMask: uint32(d.uvarint()),
			ConnLo:   int32(d.varint()),
			ConnHi:   int32(d.varint()),
			LocLo:    uint16(d.uvarint()),
			LocHi:    uint16(d.uvarint()),
		}
		if d.err != nil {
			break
		}
		if c.Size <= 0 || c.Size > maxChunkPayload || c.Offset < headerSize || c.Offset+4+c.Size > footOff {
			d.fail("tstore: chunk %d extent [%d, +%d) outside the data section", i, c.Offset, c.Size)
			break
		}
		if c.Count <= 0 || c.Count > maxChunkPayload {
			d.fail("tstore: chunk %d implausible event count %d", i, c.Count)
			break
		}
		if c.MinT < prevEnd {
			s.sorted = false
		}
		prevEnd = c.MaxT
		s.index = append(s.index, c)
	}
	s.total = d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	var n uint64
	for i := range s.index {
		n += uint64(s.index[i].Count)
	}
	if n != s.total {
		return nil, fmt.Errorf("tstore: footer total %d disagrees with index sum %d", s.total, n)
	}
	return s, nil
}

// Close releases the underlying file, when the store owns one.
func (s *Store) Close() error {
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// Locs returns the store's location table; event Loc fields index it.
func (s *Store) Locs() []string { return s.locs }

// Chunks returns the footer index (read-only).
func (s *Store) Chunks() []ChunkInfo { return s.index }

// TotalEvents returns the number of events in the store.
func (s *Store) TotalEvents() uint64 { return s.total }

// Version returns the format version the store was written in (the
// header field): storeVersion, the only one NewStore opens.
func (s *Store) Version() int { return storeVersion }

// ChunkEvents returns the chunk capacity the store was written with
// (the header field): every chunk but the last holds this many events.
func (s *Store) ChunkEvents() int { return s.chunkN }

// LocID resolves a location name to its store id, or -1.
func (s *Store) LocID(name string) int {
	for i, n := range s.locs {
		if n == name {
			return i
		}
	}
	return -1
}

// Scan streams every event matching q through fn, in file order,
// skipping chunks the index rules out. fn receives a pointer into a
// scratch buffer that is reused — copy the event to retain it. A
// non-nil error from fn aborts the scan and is returned; ErrStop
// aborts and returns nil.
func (s *Store) Scan(q Query, fn func(*obs.Event) error) error {
	_, err := s.scanCols(q, colAll, fn)
	return err
}

// ScanStats is Scan, also reporting how many chunks the index skipped
// — the chunk-skip ratio is skipped/len(Chunks()).
func (s *Store) ScanStats(q Query, fn func(*obs.Event) error) (skipped int, err error) {
	return s.scanCols(q, colAll, fn)
}

// scanCols is the scan behind Scan and behind every fold: fn may read
// only the fields named in cols, the others hold whatever an earlier
// chunk or scan left in the scratch. Per chunk it decodes cols plus the
// columns of those predicates of q the footer index leaves open, and
// tests only those per event.
func (s *Store) scanCols(q Query, cols colSet, fn func(*obs.Event) error) (skipped int, err error) {
	locID, ok := q.locID(s.locs)
	if !ok {
		return len(s.index), nil
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	for i := range s.index {
		c := &s.index[i]
		if !c.overlaps(q, locID) {
			skipped++
			if s.sorted && q.To > 0 && c.MinT >= q.To {
				skipped += len(s.index) - i - 1
				return skipped, nil
			}
			continue
		}
		open := c.unsettled(q, locID)
		events, err := s.readChunk(c, sc, cols|open, q.typesIn(open))
		if err != nil {
			return skipped, err
		}
		for j := range events {
			ev := &events[j]
			if open != 0 && !q.match(ev, locID, open) {
				continue
			}
			if err := fn(ev); err != nil {
				if err == ErrStop {
					return skipped, nil
				}
				return skipped, err
			}
		}
	}
	return skipped, nil
}

// scratch is one scan's working memory: the chunk payload as read and
// the events decoded from it.
type scratch struct {
	payload []byte
	events  []obs.Event
}

// maxFreeScratch bounds the scratch a Store retains between scans:
// enough that a few concurrent scans each find theirs, and a burst of
// many leaves the rest to the collector.
const maxFreeScratch = 4

// getScratch hands the calling scan a scratch of its own — one an
// earlier scan returned, when there is one, so that a store queried
// repeatedly allocates only on its first scan.
func (s *Store) getScratch() *scratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		sc := s.free[n-1]
		s.free = s.free[:n-1]
		return sc
	}
	return &scratch{}
}

func (s *Store) putScratch(sc *scratch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < maxFreeScratch {
		s.free = append(s.free, sc)
	}
}

// readChunk reads one chunk into sc and decodes the columns in cols
// (see decodeChunk, which also explains types). The events are valid
// until sc is next used.
func (s *Store) readChunk(c *ChunkInfo, sc *scratch, cols colSet, types uint32) ([]obs.Event, error) {
	payload, err := s.readPayload(c, sc)
	if err != nil {
		return nil, err
	}
	events, n, err := decodeChunk(payload, sc.events, len(s.locs), cols, types)
	if err != nil {
		return nil, err
	}
	sc.events = events[:cap(events)]
	if n != c.Count {
		return nil, fmt.Errorf("tstore: chunk at %d holds %d events, index says %d", c.Offset, n, c.Count)
	}
	return events, nil
}

// readPayload reads one chunk's payload into sc and checks its length
// word against the index.
func (s *Store) readPayload(c *ChunkInfo, sc *scratch) ([]byte, error) {
	if need := int(c.Size) + 4; cap(sc.payload) < need {
		sc.payload = make([]byte, max(need, 2*cap(sc.payload)))
	}
	payload := sc.payload[:c.Size+4]
	if _, err := s.r.ReadAt(payload, c.Offset); err != nil {
		return nil, fmt.Errorf("tstore: reading chunk at %d: %w", c.Offset, err)
	}
	if got := int64(binary.LittleEndian.Uint32(payload[:4])); got != c.Size {
		return nil, fmt.Errorf("tstore: chunk at %d declares %d payload bytes, index says %d", c.Offset, got, c.Size)
	}
	return payload[4:], nil
}

// Layout is where a store's chunk payload bytes go: each chunk's event
// count, and per column its bytes and how many chunks store it which
// way. CountBytes plus every column's Bytes is the payload total.
type Layout struct {
	CountBytes int64
	Columns    [numColumns]ColumnLayout
}

// ColumnLayout is one column's share of a store's payload.
type ColumnLayout struct {
	// Name is the column's: t, type, kind, loc, conn, seq, size, id, val.
	Name  string
	Bytes int64
	// Chunks counts the chunks storing the column each way, indexed by
	// Encoding.
	Chunks [numEncodings]int
}

// Layout walks every chunk's column boundaries — reading each payload,
// stepping over every column with its structure checked, materializing
// no event — and reports where the payload bytes go.
func (s *Store) Layout() (Layout, error) {
	var l Layout
	for i := range l.Columns {
		l.Columns[i].Name = columnNames[i]
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	for i := range s.index {
		c := &s.index[i]
		payload, err := s.readPayload(c, sc)
		if err != nil {
			return l, err
		}
		var sp chunkSpans
		d := &decoder{b: payload, spans: &sp}
		events, _, err := d.chunk(sc.events, len(s.locs), 0, 0)
		if err != nil {
			return l, fmt.Errorf("tstore: chunk at %d: %w", c.Offset, err)
		}
		sc.events = events[:cap(events)]
		l.CountBytes += int64(sp.count)
		for j, col := range sp.cols {
			l.Columns[j].Bytes += int64(col.bytes)
			l.Columns[j].Chunks[col.enc]++
		}
	}
	return l, nil
}
