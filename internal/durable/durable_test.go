package durable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindInsert, Attr: "a", A: 42},
		{Kind: KindDelete, Attr: "bb", A: -7},
		{Kind: KindUpdate, Attr: "price", A: 10, B: 20},
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	l, err := CreateLog(fs, WALName(0, 0), 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for i, rec := range want {
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != 3 {
		t.Fatalf("Records() = %d, want 3", l.Records())
	}
	fs.Crash() // only synced bytes survive
	data, err := fs.ReadFile(WALName(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, torn := ReadLog(data)
	if torn {
		t.Fatal("unexpected torn tail")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
}

func TestWALGroupCommit(t *testing.T) {
	fs := NewFaultFS()
	l, err := CreateLog(fs, WALName(0, 0), 10, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, rec := range testRecords() {
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	// One commit of the last seq must cover the earlier ones too.
	if err := l.Commit(seqs[len(seqs)-1]); err != nil {
		t.Fatal(err)
	}
	syncsBefore := fs.Ops()
	for _, seq := range seqs {
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Ops() != syncsBefore {
		t.Fatal("covered commits issued extra filesystem operations")
	}
	fs.Crash()
	data, _ := fs.ReadFile(WALName(0, 0))
	got, torn := ReadLog(data)
	if torn || len(got) != 3 {
		t.Fatalf("replay got %d records (torn=%v), want 3", len(got), torn)
	}
}

func TestWALTornTailTruncates(t *testing.T) {
	fs := NewFaultFS()
	l, err := CreateLog(fs, WALName(0, 0), 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs[:2] {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the third record's write: half the frame becomes durable.
	fs.KillAt(1, true)
	if _, err := l.Append(recs[2]); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("append after kill = %v, want injected crash", err)
	}
	fs.Crash()
	data, err := fs.ReadFile(WALName(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, torn := ReadLog(data)
	if !torn {
		t.Fatal("torn tail not detected")
	}
	if !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("replay = %+v, want first two records", got)
	}
}

// encSeg and encState are EncodeSegment and EncodeState of inputs that
// must encode.
func encSeg(t *testing.T, c ColumnData) []byte {
	t.Helper()
	enc, err := EncodeSegment(c)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func encState(t *testing.T, states []IndexState) []byte {
	t.Helper()
	enc, err := EncodeState(states)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestSegmentRoundTrip(t *testing.T) {
	c := ColumnData{
		Name:  "price",
		Base:  []int64{5, -3, 99, 0},
		Tails: []int64{7, 8},
		Dead:  []uint32{1, 5},
	}
	enc := encSeg(t, c)
	got, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	c.Lo, c.Hi = -3, 99 // what the decoder saw of Base
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("decoded = %+v, want %+v", got, c)
	}
	if got.NextRow() != 6 {
		t.Fatalf("NextRow = %d, want 6", got.NextRow())
	}
	// Any flipped byte must fail the checksum.
	enc[len(segMagic)+10] ^= 0x40
	if _, err := DecodeSegment(enc); err == nil {
		t.Fatal("corrupt segment decoded without error")
	}
}

// stateCases are index states of every shape the format stores: a packed
// cracker, one whose values cannot pack, a sorted run and an empty
// cracker.
func stateCases() []IndexState {
	return []IndexState{
		{Attr: "packed", Kind: IndexCracker, Layout: LayoutPacked, Ref: -1 << 31,
			Vals: []int64{1<<32 | 0, 2<<32 | 1, 3<<32 | 2},
			Keys: []int64{-1 << 63, 2}, Starts: []uint32{0, 1},
			Accesses: 9, Hits: 4, StatsState: 2},
		{Attr: "wide", Kind: IndexCracker, Layout: LayoutRows,
			Vals: []int64{-1 << 63, 0, 1<<63 - 1}, Rows: []uint32{2, 0, 1},
			Keys: []int64{-1 << 63, 0, 5}, Starts: []uint32{0, 1, 2}},
		{Attr: "sorted", Kind: IndexSorted, Layout: LayoutRows, Vals: []int64{4, 5, 6}, Rows: []uint32{2, 1, 0}},
		{Attr: "empty", Kind: IndexCracker, Layout: LayoutPacked, Keys: []int64{-1 << 63}, Starts: []uint32{0}},
	}
}

func TestStatePerSectionDegradation(t *testing.T) {
	states := stateCases()
	enc := encState(t, states)
	got, dropped, err := DecodeState(enc)
	if err != nil || dropped != 0 {
		t.Fatalf("clean decode: dropped=%d err=%v", dropped, err)
	}
	if !reflect.DeepEqual(got, states) {
		t.Fatalf("decoded = %+v, want %+v", got, states)
	}
	// Corrupt a byte inside the first section's arrays: only that index
	// drops, whether the damage is in the body or in its trailing checksum.
	first := len(stateMagic) + 8
	body := int(sectionLen(len(states[0].Attr), states[0].Layout, 3, 2))
	for _, at := range []int{first + 8 + body - 20, first + 8 + body + 1} {
		enc = encState(t, states)
		enc[at] ^= 0x01
		got, dropped, err = DecodeState(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 1 || !reflect.DeepEqual(got, states[1:]) {
			t.Fatalf("byte %d flipped: dropped=%d survivors=%+v", at, dropped, got)
		}
	}
	// A section whose own fields disagree with its length drops alone too.
	enc = encState(t, states)
	enc[first+8+2+len(states[0].Attr)+1] = 7 // no such layout
	if got, dropped, err = DecodeState(enc); err != nil || dropped != 1 || !reflect.DeepEqual(got, states[1:]) {
		t.Fatalf("hostile layout byte: dropped=%d err=%v survivors=%+v", dropped, err, got)
	}
	// A section without row ids — what a store wrote before every index
	// carried them — drops alone behind a valid checksum too: here the
	// packed section's words, relabelled as values alone.
	enc = encState(t, states)
	enc[first+8+2+len(states[0].Attr)+1] = byte(LayoutValues)
	binary.LittleEndian.PutUint32(enc[first+8+body:], crc32.Checksum(enc[first:first+8+body], castagnoli))
	if got, dropped, err = DecodeState(enc); err != nil || dropped != 1 || !reflect.DeepEqual(got, states[1:]) {
		t.Fatalf("rowless section: dropped=%d err=%v survivors=%+v", dropped, err, got)
	}
	// A truncated file keeps the sections that are whole.
	enc = encState(t, states)
	if got, dropped, err = DecodeState(enc[:first+8+body+4+30]); err != nil || dropped != len(states)-1 || !reflect.DeepEqual(got, states[:1]) {
		t.Fatalf("truncated file: dropped=%d err=%v survivors=%+v", dropped, err, got)
	}
	// A corrupt header — the count included — fails the whole file, and so
	// does the previous format's magic.
	for _, at := range []int{0, 4, len(stateMagic) + 1, len(stateMagic) + 5} {
		enc = encState(t, states)
		enc[at] ^= 0xff
		if _, _, err := DecodeState(enc); err == nil {
			t.Fatalf("header byte %d corrupted: decoded without error", at)
		}
	}
}

// TestEncodersRejectWhatTheyCannotFrame: a name the 16-bit length field
// would truncate, a patch list out of order, arrays that contradict their
// layout and an index without row ids are errors, not checksummed files that decode to other
// data.
func TestEncodersRejectWhatTheyCannotFrame(t *testing.T) {
	long := strings.Repeat("n", 1<<16)
	if _, err := EncodeSegment(ColumnData{Name: long, Base: []int64{1}}); !errors.Is(err, ErrFrame) {
		t.Fatalf("segment with a %d-byte name: %v, want ErrFrame", len(long), err)
	}
	if _, err := EncodeSegment(ColumnData{Name: long[:1<<16-1], Base: []int64{1}}); err != nil {
		t.Fatalf("segment with a 65535-byte name: %v", err)
	}
	if _, err := EncodeState([]IndexState{{Attr: long, Kind: IndexSorted}}); !errors.Is(err, ErrFrame) {
		t.Fatalf("state with a %d-byte name: %v, want ErrFrame", len(long), err)
	}
	for _, bad := range []ColumnData{
		{Name: "a", Base: []int64{1, 2}, Patch: []RowValue{{1, 0}, {0, 0}}},
		{Name: "a", Base: []int64{1, 2}, Patch: []RowValue{{2, 0}}},
	} {
		if _, err := EncodeSegment(bad); err == nil {
			t.Fatalf("segment with patch %v encoded", bad.Patch)
		}
	}
	for _, bad := range []IndexState{
		{Attr: "a", Kind: IndexCracker, Layout: LayoutRows, Vals: []int64{1}},
		{Attr: "a", Kind: IndexCracker, Layout: LayoutPacked, Vals: []int64{1}, Rows: []uint32{0}},
		{Attr: "a", Kind: IndexSorted, Layout: LayoutPacked},
		{Attr: "a", Kind: IndexSorted, Layout: LayoutValues, Vals: []int64{1}},
		{Attr: "a", Kind: IndexCracker, Layout: LayoutValues, Vals: []int64{1}, Keys: []int64{-1 << 63}, Starts: []uint32{0}},
		{Attr: "a", Kind: IndexCracker, Keys: []int64{0}},
		{Attr: "a", Kind: 9},
	} {
		if _, err := EncodeState([]IndexState{bad}); err == nil {
			t.Fatalf("state %+v encoded", bad)
		}
	}

	// A snapshot that cannot be framed creates no file, and the previous
	// generation stays the one recovery picks.
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10, 20})
	ops := fs.Ops()
	m := &Manifest{Generation: 2, Mode: "test"}
	cols := []ColumnData{{Name: "a", Base: []int64{1}}, {Name: long, Base: []int64{2}}}
	if _, err := WriteSnapshot(fs, m, cols, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("WriteSnapshot with a %d-byte name: %v, want ErrFrame", len(long), err)
	}
	if fs.Ops() != ops {
		t.Fatalf("the refused snapshot performed %d filesystem operations", fs.Ops()-ops)
	}
	rec, err := Recover(fs)
	if err != nil || rec.Gen != 1 || !reflect.DeepEqual(rec.Columns[0].Base, []int64{10, 20}) {
		t.Fatalf("after the refused snapshot: %+v, %v", rec, err)
	}
}

// TestSnapshotBytesGolden: the streamed segment is HSEG1 byte for byte —
// hand-framed here from the format's description, with updated rows in
// the base and in the tail, tails and tombstones — and it is what a reader
// of the folded arrays decodes.
func TestSnapshotBytesGolden(t *testing.T) {
	c := ColumnData{
		Name:  "qty",
		Base:  []int64{5, -3, 99, 0},
		Tails: []int64{7, 8},
		Dead:  []uint32{1, 5},
		Patch: []RowValue{{Row: 0, Val: -1}, {Row: 3, Val: 1 << 40}, {Row: 5, Val: 80}},
	}
	folded := ColumnData{Name: "qty", Base: []int64{-1, -3, 99, 1 << 40}, Tails: []int64{7, 80}, Dead: []uint32{1, 5}, Lo: -3, Hi: 1 << 40}

	want := []byte("HSEG1\n")
	want = binary.LittleEndian.AppendUint16(want, 3)
	want = append(want, "qty"...)
	want = binary.LittleEndian.AppendUint32(want, 4)
	want = binary.LittleEndian.AppendUint32(want, 2)
	want = binary.LittleEndian.AppendUint32(want, 2)
	for _, v := range append(append([]int64(nil), folded.Base...), folded.Tails...) {
		want = binary.LittleEndian.AppendUint64(want, uint64(v))
	}
	for _, row := range folded.Dead {
		want = binary.LittleEndian.AppendUint32(want, row)
	}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, castagnoli))

	if got := encSeg(t, c); !bytes.Equal(got, want) {
		t.Fatalf("patched segment =\n%x, want\n%x", got, want)
	}
	if got := encSeg(t, folded); !bytes.Equal(got, want) {
		t.Fatalf("folded segment =\n%x, want\n%x", got, want)
	}
	if got, err := DecodeSegment(want); err != nil || !reflect.DeepEqual(got, folded) {
		t.Fatalf("decoded = %+v, %v; want %+v", got, err, folded)
	}

	// The same bytes at every array size around the chunk boundary, where
	// a value, a patch or the checksum straddles two writes.
	for _, n := range []int{chunkSize/8 - 4, chunkSize/8 - 3, chunkSize / 8, chunkSize/4 + 1} {
		big := ColumnData{Name: "qty", Base: make([]int64, n), Tails: []int64{1, 2, 3}, Dead: []uint32{9}}
		for i := range big.Base {
			big.Base[i] = int64(i) * 7919
		}
		big.Hi = big.Base[n-1]
		patched := big
		patched.Base = append([]int64(nil), big.Base...)
		for _, row := range []int{0, n / 2, chunkSize/8 - 4, n - 1, n + 2} {
			if row >= 0 && row < n {
				patched.Base[row] = -1 // what Base says is not what is stored
				patched.Patch = append(patched.Patch, RowValue{Row: uint32(row), Val: big.Base[row]})
			} else if row == n+2 {
				patched.Tails = []int64{1, 2, -1}
				patched.Patch = append(patched.Patch, RowValue{Row: uint32(row), Val: 3})
			}
		}
		slices.SortFunc(patched.Patch, func(a, b RowValue) int { return cmp.Compare(a.Row, b.Row) })
		patched.Patch = slices.CompactFunc(patched.Patch, func(a, b RowValue) bool { return a.Row == b.Row })
		enc := encSeg(t, patched)
		got, err := DecodeSegment(enc)
		if err != nil || !reflect.DeepEqual(got, big) {
			t.Fatalf("%d values: streamed segment does not decode to the folded column (%v)", n, err)
		}
	}
}

// TestSnapshotKilledAtEveryOp streams a multi-chunk snapshot over an older
// generation and cuts power at each of its filesystem operations, clean
// and torn — chunks mid-array, the fsyncs that follow the last write, the
// manifest rename: recovery picks the new generation exactly when
// WriteSnapshot returned, the old one otherwise, never a mixture.
func TestSnapshotKilledAtEveryOp(t *testing.T) {
	oldVals := []int64{10, 20}
	newVals := make([]int64, chunkSize/4+100) // three chunks a segment
	newRows := make([]uint32, len(newVals))
	for i := range newVals {
		newVals[i], newRows[i] = int64(i), uint32(i)
	}
	index := IndexState{Attr: "a", Kind: IndexSorted, Layout: LayoutRows, Vals: newVals, Rows: newRows}
	write := func(fs FS) error {
		m := &Manifest{Generation: 2, Mode: "test"}
		cols := []ColumnData{{Name: "a", Base: newVals}, {Name: "b", Base: newVals[:5]}}
		_, err := WriteSnapshot(fs, m, cols, []IndexSource{func(emit func(IndexState) error) error { return emit(index) }})
		return err
	}
	count := NewFaultFS()
	snapshotAt(t, count, 1, oldVals)
	before := count.Ops()
	if err := write(count); err != nil {
		t.Fatal(err)
	}
	total := count.Ops() - before
	if total < 3*3+3+2 {
		t.Fatalf("the snapshot took %d filesystem operations; it is not chunked", total)
	}
	for k := 1; k <= total; k++ {
		for _, torn := range []bool{false, true} {
			fs := NewFaultFS()
			snapshotAt(t, fs, 1, oldVals)
			fs.KillAt(k, torn)
			werr := write(fs)
			fs.Crash()
			rec, err := Recover(fs)
			if err != nil {
				t.Fatalf("kill=%d torn=%v: recover: %v", k, torn, err)
			}
			wantGen, wantBase := uint64(1), oldVals
			if werr == nil {
				wantGen, wantBase = 2, newVals
			}
			if rec.Gen != wantGen || !reflect.DeepEqual(rec.Columns[0].Base, wantBase) {
				t.Fatalf("kill=%d torn=%v: write error %v, recovered generation %d", k, torn, werr, rec.Gen)
			}
			if werr == nil && (len(rec.Indexes) != 1 || !reflect.DeepEqual(rec.Indexes[0], index)) {
				t.Fatalf("kill=%d torn=%v: committed generation lost its index state", k, torn)
			}
		}
	}
}

func snapshotAt(t *testing.T, fs FS, gen uint64, vals []int64) {
	t.Helper()
	m := &Manifest{Generation: gen, Mode: "test"}
	cols := []ColumnData{{Name: "a", Base: vals}}
	if _, err := WriteSnapshot(fs, m, cols, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverPicksNewestValidGeneration(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10, 20})
	snapshotAt(t, fs, 2, []int64{10, 20, 30})
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 2 || rec.Fallbacks != 0 || len(rec.Columns) != 1 {
		t.Fatalf("rec = %+v", rec)
	}
	if !reflect.DeepEqual(rec.Columns[0].Base, []int64{10, 20, 30}) {
		t.Fatalf("columns = %+v", rec.Columns)
	}
}

func TestRecoverFallsBackOnTornManifest(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10, 20})
	snapshotAt(t, fs, 2, []int64{10, 20, 30})
	// Corrupt generation 2's manifest in the durable view.
	data, err := fs.ReadFile(ManifestName(2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	fs.cur[ManifestName(2)] = data
	fs.dur[ManifestName(2)] = append([]byte(nil), data...)
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 1 || rec.Fallbacks != 1 {
		t.Fatalf("gen=%d fallbacks=%d, want gen 1 with 1 fallback", rec.Gen, rec.Fallbacks)
	}
}

func TestRecoverReplaysWALTailAcrossSegments(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 1, []int64{10})
	l, err := CreateLog(fs, WALName(1, 0), 1, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindInsert, Attr: "a", A: 7}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A reopen without checkpoint starts a new part of the same gen.
	l2, err := CreateLog(fs, WALName(1, 1), 2, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(Record{Kind: KindDelete, Attr: "a", A: 10}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.SeqAfterReplay != 3 || rec.NextPart != 2 {
		t.Fatalf("records=%d seq=%d part=%d", len(rec.Records), rec.SeqAfterReplay, rec.NextPart)
	}
	if rec.Records[0].Kind != KindInsert || rec.Records[1].Kind != KindDelete {
		t.Fatalf("records out of order: %+v", rec.Records)
	}
}

func TestCleanMarkerConsumedOnOpen(t *testing.T) {
	fs := NewFaultFS()
	snapshotAt(t, fs, 5, []int64{1})
	if err := WriteCleanMarker(fs, 5); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Clean {
		t.Fatal("clean shutdown not detected")
	}
	rec2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Clean {
		t.Fatal("marker survived the first open")
	}
}

func TestPruneKeepsOnlyRequestedGenerations(t *testing.T) {
	fs := NewFaultFS()
	for gen := uint64(1); gen <= 3; gen++ {
		snapshotAt(t, fs, gen, []int64{int64(gen)})
		l, err := CreateLog(fs, WALName(gen, 0), gen, SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	if err := Prune(fs, map[uint64]bool{2: true, 3: true}); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	for _, name := range names {
		if gen, owned := fileGeneration(name); owned && gen < 2 {
			t.Fatalf("generation-1 file %s survived prune", name)
		}
	}
	rec, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 3 {
		t.Fatalf("gen after prune = %d, want 3", rec.Gen)
	}
}

func TestRecoverFreshDirectory(t *testing.T) {
	rec, err := Recover(NewFaultFS())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 0 || rec.Manifest != nil || len(rec.Records) != 0 || rec.NextPart != 0 {
		t.Fatalf("fresh recover = %+v", rec)
	}
}

func TestShortFsyncTearsUnsyncedSuffix(t *testing.T) {
	fs := NewFaultFS()
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	fs.KillAt(1, false)
	if err := f.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("sync = %v, want injected crash", err)
	}
	fs.Crash()
	data, err := fs.ReadFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Fatalf("short fsync persisted %d bytes, want 4", len(data))
	}
}
