package flight

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"
)

// frame wraps payload the way Encode does: length, CRC32C, payload. A
// crafted file in the data directory can carry any payload under a
// valid checksum, so the fuzzer gets to, too.
func frame(payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// FuzzDecode: Decode never panics, never accepts a frame whose checksum
// does not match, and never sizes anything from a length field the bytes
// present cannot back — the two hostile fields are the event count
// (count*64 overflows uint64 from 2^58) and the name count (2^32 string
// headers from four bytes of input).
func FuzzDecode(f *testing.F) {
	r := NewRecorder(64)
	r.RecordQuery(time.Now(), 1, 7, 1500, 900, 400, 42)
	r.RecordRefine(r.Intern("orders.total"), 2, 5, 3, 123.5, 17)
	r.RecordCheckpoint(4, 120, 96_000_000, 5_000_000)
	good := Encode(r, TriggerCheckpoint, 4)
	f.Add(good, uint64(3), uint32(2), true)
	f.Add(good, uint64(1)<<58, uint32(2), true)      // count*64 wraps to 0
	f.Add(good, uint64(3), uint32(0xffffffff), true) // 64 GiB of string headers
	f.Add(good[:len(good)/2], uint64(3), uint32(2), false)
	f.Add([]byte{}, uint64(0), uint32(0), false)

	f.Fuzz(func(t *testing.T, data []byte, count uint64, nNames uint32, reframe bool) {
		// Besides the raw bytes, plant the two length fields into a copy
		// and re-checksum it: the mutation a bit-flipping fuzzer cannot
		// find on its own behind a CRC.
		if reframe && len(data) >= 8+dumpHeaderLen {
			payload := append([]byte(nil), data[8:]...)
			binary.LittleEndian.PutUint64(payload[16:], count)
			if at := uint64(dumpHeaderLen) + count*dumpEventSize; count < 1<<20 && at+4 <= uint64(len(payload)) {
				binary.LittleEndian.PutUint32(payload[at:], nNames)
			}
			data = frame(payload)
		}
		d, err := Decode(data)
		if err != nil {
			return
		}
		if len(data) < 8 || crc32.Checksum(data[8:], castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
			t.Fatalf("Decode accepted %d bytes with a bad checksum", len(data))
		}
		if len(d.Events)*dumpEventSize > len(data) || cap(d.Names)*4 > len(data) {
			t.Fatalf("Decode sized %d events and %d names from %d bytes", len(d.Events), cap(d.Names), len(data))
		}
	})
}
