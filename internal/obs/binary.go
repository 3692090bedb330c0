package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"tahoedyn/internal/packet"
)

// The flat binary trace format, read-only since the chunked store
// (internal/tstore, "TOBC") replaced it: nothing writes it any more, and
// DecodeBinary stays so tahoe-query still opens old files. A fixed
// header ("TOBS" magic + uint16 version, little-endian), then a stream
// of tagged records. Tag 0 defines a location (index, name); tag 1 is
// one 40-byte event record. Writers emitted location definitions lazily,
// just before the first event that references them.
const (
	binaryMagic   = "TOBS"
	binaryVersion = 1

	recLocDef byte = 0
	recEvent  byte = 1

	// eventRecSize is the fixed payload size of a tag-1 record:
	// T(8) Val(8) ID(8) Conn(4) Seq(4) Size(4) Loc(2) Type(1) Kind(1).
	eventRecSize = 40
)

func unmarshalEvent(b []byte) Event {
	return Event{
		T:    time.Duration(binary.LittleEndian.Uint64(b[0:])),
		Val:  math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		ID:   binary.LittleEndian.Uint64(b[16:]),
		Conn: int32(binary.LittleEndian.Uint32(b[24:])),
		Seq:  int32(binary.LittleEndian.Uint32(b[28:])),
		Size: int32(binary.LittleEndian.Uint32(b[32:])),
		Loc:  Loc(binary.LittleEndian.Uint16(b[36:])),
		Type: Type(b[38]),
		Kind: packet.Kind(b[39]),
	}
}

// DecodeBinary parses a binary trace stream. It rejects bad magic and
// any version newer than binaryVersion.
func DecodeBinary(r io.Reader) (locs []string, events []Event, err error) {
	br := bufio.NewReader(r)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("obs: short binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, nil, fmt.Errorf("obs: bad binary magic %q (want %q)", hdr[:4], binaryMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v > binaryVersion {
		return nil, nil, fmt.Errorf("obs: binary trace version %d is newer than supported version %d", v, binaryVersion)
	}
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return locs, events, nil
		}
		if err != nil {
			return nil, nil, err
		}
		switch tag {
		case recLocDef:
			var lh [4]byte
			if _, err := io.ReadFull(br, lh[:]); err != nil {
				return nil, nil, fmt.Errorf("obs: short location record: %w", err)
			}
			index := binary.LittleEndian.Uint16(lh[0:2])
			name := make([]byte, binary.LittleEndian.Uint16(lh[2:4]))
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, nil, fmt.Errorf("obs: short location name: %w", err)
			}
			if int(index) != len(locs) {
				return nil, nil, fmt.Errorf("obs: location %q defined out of order (index %d, have %d)", name, index, len(locs))
			}
			locs = append(locs, string(name))
		case recEvent:
			var rec [eventRecSize]byte
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, nil, fmt.Errorf("obs: short event record: %w", err)
			}
			ev := unmarshalEvent(rec[:])
			if ev.Type >= numTypes {
				return nil, nil, fmt.Errorf("obs: unknown event type %d in binary stream", ev.Type)
			}
			events = append(events, ev)
		default:
			return nil, nil, fmt.Errorf("obs: unknown record tag %d in binary stream", tag)
		}
	}
}
