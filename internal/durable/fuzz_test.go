package durable_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"holistic"
	"holistic/internal/durable"
)

// The three decoders recovery feeds: what they return is replayed through
// the store's write path, so each target holds its decoder to never
// panicking, never accepting bytes whose checksum does not match, and
// never sizing anything from a length field the bytes present cannot
// back. The corpora start from the files a real Checkpoint leaves.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Lengths of the "HSEG1\n" and "HSTA1\n" file magics.
const magicLen = 6

// checkpointFiles runs a small durable store through queries, writes of
// every kind and a Checkpoint with more writes after it, and returns the
// contents of the files its directory then holds whose names start with
// prefix: "seg-", "state-" or "wal-".
func checkpointFiles(f *testing.F, prefix string) [][]byte {
	f.Helper()
	dir := f.TempDir()
	s, err := holistic.OpenStore(dir, holistic.Config{Mode: holistic.ModeAdaptive, Seed: 1, SnapshotInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i * 37 % 53)
	}
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	must(s.AddIntColumn("price", vals))
	must(s.AddIntColumn("qty", vals[:64]))
	write := func() {
		must(s.Insert("price", 1001))
		must(s.Delete("price", vals[3]))
		must(s.Update("qty", vals[5], 77))
	}
	_, err = s.CountRange("price", 10, 40)
	must(err)
	_, err = s.SelectRows("qty", 5, 25)
	must(err)
	write()
	must(s.Checkpoint())
	write()
	names, err := os.ReadDir(dir)
	must(err)
	var files [][]byte
	for _, e := range names {
		if strings.HasPrefix(e.Name(), prefix) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			must(err)
			if len(data) > 0 {
				files = append(files, data)
			}
		}
	}
	if len(files) == 0 {
		f.Fatalf("the checkpointed store left no %s* file", prefix)
	}
	return files
}

// boundedAlloc runs decode and fails when it allocated more than a small
// multiple of its input: the slack absorbs the runtime's own allocations,
// a length field taken at its word does not fit in it.
func boundedAlloc(t *testing.T, input int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*input+1<<20); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", input, got, limit)
	}
}

// FuzzReadLog: every record ReadLog returns, framed again, is the input
// byte for byte — so its checksum held — and torn says exactly whether
// input is left over. The planted length field is the one outside the
// checksum: a frame claiming up to 4 GiB of payload.
func FuzzReadLog(f *testing.F) {
	for _, data := range checkpointFiles(f, "wal-") {
		if recs, torn := durable.ReadLog(data); len(recs) == 0 || torn {
			f.Fatalf("a WAL the store wrote reads back as %d records, torn = %v", len(recs), torn)
		}
		f.Add(data, uint32(0), false)
		f.Add(data, uint32(0xfffffff8), true) // 8+n wraps to 0 in 32 bits
		f.Add(data, uint32(0xffffffff), true)
		f.Add(data[:len(data)-5], uint32(0), false)
	}
	f.Add([]byte{}, uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, n uint32, plant bool) {
		if plant && len(data) >= 4 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data, n)
		}
		var recs []durable.Record
		var torn bool
		boundedAlloc(t, len(data), func() { recs, torn = durable.ReadLog(data) })

		fs := durable.NewFaultFS()
		log, err := durable.CreateLog(fs, "again", 0, durable.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := fs.ReadFile("again")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("ReadLog returned %d records that do not frame back to its input", len(recs))
		}
		if torn != (len(again) < len(data)) {
			t.Fatalf("torn = %v with %d of %d bytes decoded", torn, len(again), len(data))
		}
	})
}

// FuzzDecodeSegment: an accepted segment carries a matching checksum,
// encodes back to its input, and stops decoding when any one bit flips.
// The planted fields are the three array lengths, behind a recomputed
// checksum.
func FuzzDecodeSegment(f *testing.F) {
	for _, data := range checkpointFiles(f, "seg-") {
		if _, err := durable.DecodeSegment(data); err != nil {
			f.Fatalf("a segment the store wrote: %v", err)
		}
		f.Add(data, uint32(0), uint32(0), uint32(0), false, uint(0))
		f.Add(data, uint32(0xffffffff), uint32(1), uint32(1), true, uint(9))
		f.Add(data, uint32(1<<29), uint32(1<<29), uint32(1<<30), true, uint(77)) // 8a+8b+4c wraps to 0 in 32 bits
		f.Add(data[:len(data)/2], uint32(0), uint32(0), uint32(0), false, uint(0))
	}
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0), false, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, nBase, nTails, nDead uint32, plant bool, flip uint) {
		if at := magicLen + 2; plant && len(data) >= at+12+4 {
			data = bytes.Clone(data)
			at += int(binary.LittleEndian.Uint16(data[magicLen:]))
			if at+12+4 <= len(data) {
				binary.LittleEndian.PutUint32(data[at:], nBase)
				binary.LittleEndian.PutUint32(data[at+4:], nTails)
				binary.LittleEndian.PutUint32(data[at+8:], nDead)
			}
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, castagnoli))
		}
		var c durable.ColumnData
		var err error
		boundedAlloc(t, len(data), func() { c, err = durable.DecodeSegment(data) })
		if err != nil {
			return
		}
		if body := data[:len(data)-4]; crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
			t.Fatalf("DecodeSegment accepted %d bytes with a bad checksum", len(data))
		}
		if !bytes.Equal(durable.EncodeSegment(c), data) {
			t.Fatalf("segment %q (%d/%d/%d values) does not encode back to its input", c.Name, len(c.Base), len(c.Tails), len(c.Dead))
		}
		flipped := bytes.Clone(data)
		flipped[flip%uint(len(data))] ^= 1 << (flip % 8)
		if _, err := durable.DecodeSegment(flipped); err == nil {
			t.Fatalf("DecodeSegment accepted its input with bit %d flipped", flip%uint(8*len(data)))
		}
	})
}

// FuzzDecodeState: every section DecodeState returns carried a matching
// checksum and, when none was dropped, the states encode back to the
// input's prefix; returned plus dropped is the count the header claims.
// The planted fields are that count and the first section's array
// lengths, behind a recomputed section checksum.
func FuzzDecodeState(f *testing.F) {
	for _, data := range checkpointFiles(f, "state-") {
		if states, dropped, err := durable.DecodeState(data); err != nil || dropped != 0 || len(states) != 2 {
			f.Fatalf("the state file the store wrote decodes to %d states, %d dropped, %v", len(states), dropped, err)
		}
		f.Add(data, uint32(2), uint32(0), uint32(0), uint32(0), false)
		f.Add(data, uint32(0xffffffff), uint32(0), uint32(0), uint32(0), true)
		f.Add(data, uint32(2), uint32(0xffffffff), uint32(7), uint32(1<<31), true)
		f.Add(data, uint32(2), uint32(1<<29), uint32(0), uint32(0), true) // 8*nVals wraps to 0 in 32 bits
		f.Add(data[:len(data)/2], uint32(2), uint32(0), uint32(0), uint32(0), false)
	}
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, count, nVals, nRows, nKeys uint32, plant bool) {
		const first = magicLen + 4 // the first section's length word
		if plant && len(data) >= first+8 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data[magicLen:], count)
			n := int(binary.LittleEndian.Uint32(data[first:]))
			if section := data[first+8:]; n <= len(section) && n >= 2 {
				section = section[:n]
				if at := 2 + int(binary.LittleEndian.Uint16(section)) + 2; at+12 <= n {
					binary.LittleEndian.PutUint32(section[at:], nVals)
					binary.LittleEndian.PutUint32(section[at+4:], nRows)
					binary.LittleEndian.PutUint32(section[at+8:], nKeys)
				}
				binary.LittleEndian.PutUint32(data[first+4:], crc32.Checksum(section, castagnoli))
			}
		}
		var states []durable.IndexState
		var dropped int
		var err error
		boundedAlloc(t, len(data), func() { states, dropped, err = durable.DecodeState(data) })
		if err != nil {
			if len(states) > 0 {
				t.Fatalf("DecodeState failed with %d states returned", len(states))
			}
			return
		}
		if claimed := int(binary.LittleEndian.Uint32(data[magicLen:])); len(states)+dropped != claimed {
			t.Fatalf("%d states + %d dropped, header claims %d", len(states), dropped, claimed)
		}
		for _, st := range states {
			if len(st.Starts) != len(st.Keys) {
				t.Fatalf("state %q: %d keys, %d starts", st.Attr, len(st.Keys), len(st.Starts))
			}
		}
		if dropped == 0 && !bytes.HasPrefix(data, durable.EncodeState(states)) {
			t.Fatalf("%d states decoded with none dropped do not encode back to the input", len(states))
		}
	})
}
