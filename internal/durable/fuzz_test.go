package durable_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"holistic"
	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/sortidx"
)

// The four decoders recovery feeds: what they return is replayed through
// the store's write path or adopted as an index, so each target holds its
// decoder to never panicking, never accepting bytes whose checksum does
// not match, and never sizing anything from a length field the bytes
// present cannot back. The corpora start from the files a real Checkpoint
// leaves.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Lengths of the "HSEG1\n" and "HSTA2\n" file magics.
const magicLen = 6

// checkpointFiles runs a small durable store through queries, writes of
// every kind and a Checkpoint with more writes after it, and returns the
// contents of the files its directory then holds whose names start with
// prefix: "seg-", "state-", "manifest-" or "wal-". Two of its three
// columns pack into words; the third spans all of int64 and cannot.
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
	wide := slices.Clone(vals)
	wide[0], wide[1] = math.MinInt64, math.MaxInt64
	must(s.AddIntColumn("price", vals))
	must(s.AddIntColumn("qty", vals[:64]))
	must(s.AddIntColumn("wide", wide))
	write := func() {
		must(s.Insert("price", 1001))
		must(s.Delete("price", vals[3]))
		must(s.Update("qty", vals[5], 77))
	}
	_, err = s.CountRange("price", 10, 40)
	must(err)
	_, err = s.SelectRows("qty", 5, 25)
	must(err)
	_, err = s.CountRange("wide", 5, 25)
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
		if again, err := durable.EncodeSegment(c); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("segment %q (%d/%d/%d values) does not encode back to its input", c.Name, len(c.Base), len(c.Tails), len(c.Dead))
		}
		flipped := bytes.Clone(data)
		flipped[flip%uint(len(data))] ^= 1 << (flip % 8)
		if _, err := durable.DecodeSegment(flipped); err == nil {
			t.Fatalf("DecodeSegment accepted its input with bit %d flipped", flip%uint(8*len(data)))
		}
	})
}

// FuzzDecodeState: returned plus dropped is the count the header claims;
// when nothing was dropped the states encode back to the input's prefix,
// so every checksum held; and a cracker section that decodes either fails
// cracking.Restore or becomes a column that passes CheckInvariants and
// answers a select — never a panic. The planted fields sit behind
// recomputed checksums: the section count, and in the first section its
// length (moved by delta), layout byte, packing ref and the two counts.
func FuzzDecodeState(f *testing.F) {
	for _, data := range checkpointFiles(f, "state-") {
		states, dropped, err := durable.DecodeState(data)
		if err != nil || dropped != 0 || len(states) != 3 {
			f.Fatalf("the state file the store wrote decodes to %d states, %d dropped, %v", len(states), dropped, err)
		}
		if states[0].Layout != durable.LayoutPacked || states[2].Layout != durable.LayoutRows {
			f.Fatalf("the store wrote layouts %d and %d, want a packed and a wide section", states[0].Layout, states[2].Layout)
		}
		f.Add(data, uint32(3), int64(0), uint8(2), states[0].Ref, uint32(len(states[0].Vals)), uint32(len(states[0].Keys)), false)
		f.Add(data, uint32(0xffffffff), int64(0), uint8(2), int64(0), uint32(0), uint32(0), true)
		f.Add(data, uint32(3), int64(0), uint8(2), int64(math.MaxInt64), uint32(64), uint32(3), true) // the window leaves int64
		f.Add(data, uint32(3), int64(0), uint8(2), int64(1<<40), uint32(64), uint32(3), true)         // keys outside the window
		f.Add(data, uint32(3), int64(0), uint8(0), int64(0), uint32(64), uint32(3), true)             // words read as values
		f.Add(data, uint32(3), int64(256), uint8(1), int64(0), uint32(64), uint32(3), true)           // rows where none were written
		f.Add(data, uint32(3), int64(0), uint8(3), int64(0), uint32(64), uint32(3), true)
		f.Add(data, uint32(3), int64(0), uint8(2), int64(0), uint32(0xffffffff), uint32(7), true)
		f.Add(data, uint32(3), int64(0), uint8(2), int64(0), uint32(1<<29), uint32(0), true) // 8*n wraps to 0 in 32 bits
		f.Add(data, uint32(3), int64(-4), uint8(2), int64(0), uint32(64), uint32(3), true)
		f.Add(data, uint32(3), int64(math.MaxInt64), uint8(2), int64(0), uint32(64), uint32(3), true)
		f.Add(data[:len(data)/2], uint32(3), int64(0), uint8(2), int64(0), uint32(0), uint32(0), false)
	}
	f.Add([]byte{}, uint32(0), int64(0), uint8(0), int64(0), uint32(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, count uint32, delta int64, layout uint8, ref int64, nVals, nKeys uint32, plant bool) {
		const first = magicLen + 4 + 4 // the first section's length word
		if plant && len(data) >= first+8+4 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data[magicLen:], count)
			binary.LittleEndian.PutUint32(data[magicLen+4:], crc32.Checksum(data[:magicLen+4], castagnoli))
			sec := data[first:]
			n := binary.LittleEndian.Uint64(sec)
			if n <= uint64(len(sec)-12) && n >= 2 {
				body := sec[8 : 8+n]
				if at := 2 + int(binary.LittleEndian.Uint16(body)); at+18 <= len(body) {
					body[at+1] = layout
					binary.LittleEndian.PutUint64(body[at+2:], uint64(ref))
					binary.LittleEndian.PutUint32(body[at+10:], nVals)
					binary.LittleEndian.PutUint32(body[at+14:], nKeys)
				}
			}
			n += uint64(delta)
			binary.LittleEndian.PutUint64(sec, n)
			if n <= uint64(len(sec)-12) {
				binary.LittleEndian.PutUint32(sec[8+n:], crc32.Checksum(sec[:8+n], castagnoli))
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
		if again, err := durable.EncodeState(states); dropped == 0 && (err != nil || !bytes.HasPrefix(data, again)) {
			t.Fatalf("%d states decoded with none dropped do not encode back to the input (%v)", len(states), err)
		}
		for _, st := range states {
			if st.Kind == durable.IndexSorted {
				boundedAlloc(t, len(data), func() { _, _ = sortidx.Restore(st.Attr, st.Vals, st.Rows) })
				continue
			}
			boundedAlloc(t, len(data), func() {
				c, err := cracking.Restore(st.Attr, cracking.State{
					Vals: st.Vals, Rows: st.Rows, Packed: st.Layout == durable.LayoutPacked, Ref: st.Ref,
					Keys: st.Keys, Starts: st.Starts,
				}, cracking.Config{})
				if err != nil {
					return
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("Restore accepted section %q (layout %d, ref %d): %v", st.Attr, st.Layout, st.Ref, err)
				}
				lo, hi := c.Domain()
				if got := c.SelectRange(lo, hi).Count(); got > c.Len() {
					t.Fatalf("restored column %q of %d tuples selects %d", st.Attr, c.Len(), got)
				}
			})
		}
	})
}

// FuzzLoadManifest: an accepted manifest file is exactly one frame — the
// length word says how long the payload is, the checksum is the payload's —
// and writing the decoded manifest out again loads as the same manifest.
// The planted field is the length word, which the checksum does not cover.
func FuzzLoadManifest(f *testing.F) {
	for _, data := range checkpointFiles(f, "manifest-") {
		f.Add(data, uint32(0), false)
		f.Add(data, uint32(0xfffffff8), true) // 8+n wraps to 0 in 32 bits
		f.Add(data, uint32(len(data)), true)
		f.Add(data[:len(data)-3], uint32(0), false)
		f.Add(append(bytes.Clone(data), 0), uint32(0), false)
	}
	f.Add([]byte{}, uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, n uint32, plant bool) {
		if plant && len(data) >= 4 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data, n)
		}
		fs := durable.NewFaultFS()
		file, err := fs.Create("manifest")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}
		var m *durable.Manifest
		boundedAlloc(t, len(data), func() { m, err = durable.LoadManifest(fs, "manifest") })
		if err != nil {
			return
		}
		if uint64(binary.LittleEndian.Uint32(data))+8 != uint64(len(data)) {
			t.Fatalf("LoadManifest accepted %d bytes framed as %d", len(data), binary.LittleEndian.Uint32(data))
		}
		if crc32.Checksum(data[8:], castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
			t.Fatalf("LoadManifest accepted %d bytes with a bad checksum", len(data))
		}
		if err := durable.WriteManifest(fs, m); err != nil {
			t.Fatal(err)
		}
		again, err := durable.LoadManifest(fs, durable.ManifestName(m.Generation))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest %+v written out again loads as %+v, %v", m, again, err)
		}
	})
}
