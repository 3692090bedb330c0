package tstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"tahoedyn/internal/obs"
)

// WriterOptions tunes a store writer.
type WriterOptions struct {
	// ChunkEvents is the number of events per chunk; 0 means
	// DefaultChunkEvents. Smaller chunks skip at finer granularity but
	// carry more per-chunk overhead (dictionaries, index entries). A
	// request above 1<<20 is written as 1<<20: readers refuse a chunk
	// beyond 2²⁸ payload bytes, and the header field is 32 bits.
	ChunkEvents int
}

// Writer streams events into the chunked columnar store format. It
// implements obs.Sink, so a simulation traces straight to disk:
//
//	f, _ := os.Create("run.tobc")
//	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: tstore.NewWriter(f, tstore.WriterOptions{})}}
//
// Memory stays bounded by one chunk (the staging buffer plus the encode
// scratch) no matter how many events pass through; the footer index is
// the only state that grows with the trace, at one small entry per
// chunk. One Writer serves one run at a time — the mutex makes misuse
// safe, not meaningful — and Close finalizes the
// store (footer and trailer) but leaves the underlying writer open.
type Writer struct {
	mu     sync.Mutex
	w      io.Writer
	off    int64
	chunkN int

	// Store-level location interning: batches arrive with per-run
	// tables, events are staged with store ids.
	locNames []string
	locIndex map[string]obs.Loc
	// remap caches the incoming-table → store-id mapping; remapFor is
	// the table it was computed against.
	remap    []obs.Loc
	remapFor []string

	pending []obs.Event
	buf     []byte
	codes   codeTable
	index   []ChunkInfo
	total   uint64

	began  bool
	closed bool
	err    error
}

// NewWriter returns a store writer targeting w. The caller owns w:
// Close finalizes the store but does not close the file.
func NewWriter(w io.Writer, o WriterOptions) *Writer {
	n := o.ChunkEvents
	if n <= 0 {
		n = DefaultChunkEvents
	}
	return &Writer{
		w:        w,
		chunkN:   min(n, maxChunkEvents),
		locIndex: map[string]obs.Loc{},
	}
}

// Begin writes the store header. Part of the obs.Sink lifecycle.
func (sw *Writer) Begin() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.began {
		return sw.err
	}
	sw.began = true
	var hdr [headerSize]byte
	copy(hdr[:4], storeMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], storeVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(sw.chunkN))
	return sw.write(hdr[:])
}

// Events stages a batch, flushing every full chunk. Locations are
// re-interned against the store's own table, so the store is
// self-contained whatever table convention the emitting run used.
func (sw *Writer) Events(locs []string, events []obs.Event) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return fmt.Errorf("tstore: Events after Close")
	}
	sw.remapLocs(locs)
	for len(events) > 0 {
		// One copy up to the end of the chunk, then store ids in place.
		staged := len(sw.pending)
		take := min(len(events), sw.chunkN-staged)
		sw.pending = append(sw.pending, events[:take]...)
		events = events[take:]
		for i := staged; i < len(sw.pending); i++ {
			ev := &sw.pending[i]
			if int(ev.Loc) < len(sw.remap) {
				ev.Loc = sw.remap[ev.Loc]
			} else {
				ev.Loc = sw.intern("?")
			}
		}
		if len(sw.pending) == sw.chunkN {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// remapLocs refreshes the cached incoming-table mapping. The fast path
// — same backing array, same length as last batch — is two compares;
// tables only ever grow within a run, and a different run's table
// differs in content, so equality of the slices is the full check.
func (sw *Writer) remapLocs(locs []string) {
	if len(locs) == len(sw.remapFor) {
		same := len(locs) == 0 || &locs[0] == &sw.remapFor[0]
		if !same {
			same = true
			for i := range locs {
				if locs[i] != sw.remapFor[i] {
					same = false
					break
				}
			}
		}
		if same {
			return
		}
	}
	if cap(sw.remap) < len(locs) {
		sw.remap = make([]obs.Loc, len(locs))
	}
	sw.remap = sw.remap[:len(locs)]
	for i, name := range locs {
		sw.remap[i] = sw.intern(name)
	}
	sw.remapFor = locs
}

func (sw *Writer) intern(name string) obs.Loc {
	if id, ok := sw.locIndex[name]; ok {
		return id
	}
	if len(sw.locNames) > math.MaxUint16 {
		// The Loc id space is 16-bit; fold overflow into the last slot
		// rather than corrupting the table. Real runs intern a few
		// locations per network element and never get close.
		return obs.Loc(math.MaxUint16)
	}
	id := obs.Loc(len(sw.locNames))
	sw.locNames = append(sw.locNames, name)
	sw.locIndex[name] = id
	return id
}

// flushChunk encodes and writes the staged events as one chunk.
func (sw *Writer) flushChunk() error {
	if len(sw.pending) == 0 {
		return nil
	}
	// Payload behind room for its length word: one Write (a syscall) a chunk.
	var info ChunkInfo
	sw.buf, info = encodeChunk(append(sw.buf[:0], 0, 0, 0, 0), sw.pending, &sw.codes)
	info.Offset = sw.off
	info.Size = int64(len(sw.buf) - 4)
	binary.LittleEndian.PutUint32(sw.buf, uint32(info.Size))
	if err := sw.write(sw.buf); err != nil {
		return err
	}
	sw.index = append(sw.index, info)
	sw.total += uint64(len(sw.pending))
	sw.pending = sw.pending[:0]
	return nil
}

// Close flushes the final partial chunk and writes the footer index
// and trailer. The store is complete and readable once Close returns;
// the underlying writer stays open (the caller owns it).
func (sw *Writer) Close() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	if sw.err != nil {
		return sw.err
	}
	if !sw.began {
		// Mirror the tracer contract (Close always begins the sink):
		// an eventless run still leaves a valid, empty store behind.
		sw.began = true
		var hdr [headerSize]byte
		copy(hdr[:4], storeMagic)
		binary.LittleEndian.PutUint16(hdr[4:6], storeVersion)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(sw.chunkN))
		if err := sw.write(hdr[:]); err != nil {
			return err
		}
	}
	if err := sw.flushChunk(); err != nil {
		return err
	}
	return sw.writeFooter()
}

// TotalEvents returns the number of events written so far (staged
// events count once their chunk flushes; after Close, everything).
func (sw *Writer) TotalEvents() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.total + uint64(len(sw.pending))
}

// Err returns the first write error.
func (sw *Writer) Err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err
}

// writeFooter emits the location table, the chunk index, the total
// count, and the fixed trailer that lets a reader find it all from the
// end of the file.
func (sw *Writer) writeFooter() error {
	b := sw.buf[:0]
	b = binary.AppendUvarint(b, uint64(len(sw.locNames)))
	for _, name := range sw.locNames {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	b = binary.AppendUvarint(b, uint64(len(sw.index)))
	for i := range sw.index {
		c := &sw.index[i]
		b = binary.AppendUvarint(b, uint64(c.Offset))
		b = binary.AppendUvarint(b, uint64(c.Size))
		b = binary.AppendUvarint(b, uint64(c.Count))
		b = binary.AppendUvarint(b, zigzag(int64(c.MinT)))
		b = binary.AppendUvarint(b, zigzag(int64(c.MaxT)))
		b = binary.AppendUvarint(b, uint64(c.TypeMask))
		b = binary.AppendUvarint(b, zigzag(int64(c.ConnLo)))
		b = binary.AppendUvarint(b, zigzag(int64(c.ConnHi)))
		b = binary.AppendUvarint(b, uint64(c.LocLo))
		b = binary.AppendUvarint(b, uint64(c.LocHi))
	}
	b = binary.AppendUvarint(b, sw.total)
	sw.buf = b

	var tr [trailerSize]byte
	binary.LittleEndian.PutUint32(tr[0:4], crcFooter(b))
	binary.LittleEndian.PutUint32(tr[4:8], uint32(len(b)))
	copy(tr[8:12], footerMagic)
	if err := sw.write(b); err != nil {
		return err
	}
	return sw.write(tr[:])
}

func (sw *Writer) write(b []byte) error {
	n, err := sw.w.Write(b)
	sw.off += int64(n)
	if err != nil && sw.err == nil {
		sw.err = err
	}
	return err
}
