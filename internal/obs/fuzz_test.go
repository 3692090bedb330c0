package obs

import (
	"bytes"
	"testing"
	"time"

	"tahoedyn/internal/packet"
)

// FuzzDecodeBinary feeds arbitrary bytes to the TOBS binary decoder.
// Malformed input — bad magic, future versions, truncated records,
// out-of-order location definitions, unknown tags or event types —
// must come back as an error, never a panic or a hang. Well-formed
// input must survive a decode∘encode round trip byte-identically.
func FuzzDecodeBinary(f *testing.F) {
	// Seed with a valid stream...
	valid := &bytes.Buffer{}
	events := []Event{
		{T: time.Second, Type: Enqueue, Loc: 0, Conn: 1, ID: 7, Seq: 3, Size: 500, Val: 2, Kind: packet.Data},
		{T: 2 * time.Second, Type: Drop, Loc: 1, Conn: 2, ID: 8, Val: 20, Kind: packet.Ack},
		{T: 3 * time.Second, Type: CwndChange, Conn: 1, Val: 5.5},
	}
	if err := encodeBinary(valid, []string{"sw0->sw1", "host1"}, events); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// ...and structured corruptions of it.
	b := valid.Bytes()
	for _, cut := range []int{0, 3, 5, 6, 10, len(b) - 1} {
		f.Add(b[:cut])
	}
	mut := append([]byte(nil), b...)
	mut[0] = 'X' // bad magic
	f.Add(mut)
	mut = append([]byte(nil), b...)
	mut[4] = 0xff // future version
	f.Add(mut)
	f.Add([]byte("TOBS\x01\x00\x00\xff\xff\xff\xff")) // tag 0, garbage loc header
	f.Add([]byte("TOBS\x01\x00\x02"))                 // unknown tag

	f.Fuzz(func(t *testing.T, data []byte) {
		locs, evs, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded OK: re-encoding must reproduce the accepted stream's
		// canonical form, and decoding that again must be a fixed point.
		var out bytes.Buffer
		if err := encodeBinary(&out, locs, evs); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		locs2, evs2, err := DecodeBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded stream failed: %v", err)
		}
		if len(locs2) != len(locs) || len(evs2) != len(evs) {
			t.Fatalf("round trip changed shape: %d/%d locs, %d/%d events",
				len(locs2), len(locs), len(evs2), len(evs))
		}
		// Compare marshaled bytes: Val can be NaN (any bit pattern decodes),
		// so struct equality would false-positive on NaN != NaN.
		var a, b [1 + eventRecSize]byte
		for i := range evs2 {
			marshalEvent(a[:], &evs[i])
			marshalEvent(b[:], &evs2[i])
			if a != b {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, evs[i], evs2[i])
			}
		}
	})
}
