package obs

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// encodeBinary writes a complete TOBS stream — header, every location
// definition, then every event — the canonical single-run form of the
// sink this package shipped until the chunked store replaced it. It
// exists for the decoder's round-trip tests; bytes that sink really wrote
// are pinned by cmd/tahoe-query's fixture.
func encodeBinary(w io.Writer, locs []string, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], binaryVersion)
	bw.Write(v[:])
	for i, name := range locs {
		var hdr [5]byte
		hdr[0] = recLocDef
		binary.LittleEndian.PutUint16(hdr[1:3], uint16(i))
		binary.LittleEndian.PutUint16(hdr[3:5], uint16(len(name)))
		bw.Write(hdr[:])
		bw.WriteString(name)
	}
	var rec [1 + eventRecSize]byte
	for i := range events {
		marshalEvent(rec[:], &events[i])
		bw.Write(rec[:])
	}
	return bw.Flush() // reports the first write error, if any
}

// marshalEvent fills rec (1+eventRecSize bytes) with a tag-1 record.
func marshalEvent(rec []byte, ev *Event) {
	rec[0] = recEvent
	b := rec[1:]
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.T))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(ev.Val))
	binary.LittleEndian.PutUint64(b[16:], ev.ID)
	binary.LittleEndian.PutUint32(b[24:], uint32(ev.Conn))
	binary.LittleEndian.PutUint32(b[28:], uint32(ev.Seq))
	binary.LittleEndian.PutUint32(b[32:], uint32(ev.Size))
	binary.LittleEndian.PutUint16(b[36:], uint16(ev.Loc))
	b[38] = byte(ev.Type)
	b[39] = byte(ev.Kind)
}
