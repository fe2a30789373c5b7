package durable

import (
	"bytes"
	"fmt"
)

// stateMagic heads the adaptive-state file. HSTA1 files (every array as
// values plus row ids, the section checksum ahead of its body) fail the
// header check like any corrupt state file: the store opens data-only.
const stateMagic = "HSTA2\n"

// IndexKind tags which physical index an IndexState describes.
type IndexKind uint8

const (
	// IndexCracker is a cracker column: tuples in cracked physical
	// order plus the piece-boundary table.
	IndexCracker IndexKind = 1
	// IndexSorted is a fully sorted run (offline / online indexing).
	IndexSorted IndexKind = 2
)

// Layout says what an IndexState's arrays hold: the layout the index keeps
// in memory, which is the layout it is persisted in.
type Layout uint8

const (
	// LayoutValues is values alone, without row ids: what a store wrote
	// before every index carried them. No index is stored under it any
	// more, and a section that names it is dropped where it is decoded.
	LayoutValues Layout = 0
	// LayoutRows is values in Vals and their row ids in Rows.
	LayoutRows Layout = 1
	// LayoutPacked is one word per tuple in Vals and no Rows: the value's
	// offset from Ref + 2^31 in the high half, the row id in the low half
	// (see cracking's layout). Crackers only.
	LayoutPacked Layout = 2
)

// IndexState is the serialized adaptive state of one index: the
// physical array the refinement effort produced and, for crackers, the
// piece boundaries, so recovery rebuilds the index by adopting arrays
// and re-inserting boundary keys instead of re-cracking. The access
// statistics let the holistic daemon resume its strategy bookkeeping.
//
// Index state is an optimization, never a source of truth: the column
// segments alone reconstruct the data, so a corrupt section here drops
// only that index back to unrefined.
type IndexState struct {
	Attr   string
	Kind   IndexKind
	Layout Layout
	Ref    int64    // LayoutPacked: the first value of the packing window
	Vals   []int64  // values, or packed words
	Rows   []uint32 // LayoutRows only
	Keys   []int64  // cracker piece lower bounds; Keys[0] is the sentinel
	Starts []uint32 // piece start offsets, parallel to Keys

	Accesses, Hits int64
	StatsState     uint8 // stats.State; 0 = not registered
}

// IndexSource hands the snapshot writer one index. It calls emit once,
// with a state whose arrays may be the live ones and must not change until
// emit returns — a cracker column holds its latch around the call — and
// returns emit's error.
type IndexSource func(emit func(IndexState) error) error

// StateName names the adaptive-state file at generation gen.
func StateName(gen uint64) string {
	return fmt.Sprintf("state-%012d.bin", gen)
}

// sectionFixed is the size of a section body without its attribute name
// and arrays: name length, kind, layout, ref, the two counts, the access
// statistics.
const sectionFixed = 2 + 1 + 1 + 8 + 4 + 4 + 8 + 8 + 1

// sectionLen returns the body length of a section with the given name
// length, layout and counts.
func sectionLen(attr int, lay Layout, n, nKeys uint64) uint64 {
	size := sectionFixed + uint64(attr) + 8*n + 12*nKeys
	if lay == LayoutRows {
		size += 4 * n
	}
	return size
}

// writeState streams the state file:
//
//	"HSTA2\n"  u32 sections  u32 crc32c(all before)
//	per section:  u64 n  body (n bytes)  u32 crc32c(n and body)
//	body:  u16 len(attr)  attr  u8 kind  u8 layout  i64 ref
//	       u32 tuples  u32 keys  i64 accesses  i64 hits  u8 stats state
//	       tuples x i64 values or words  [LayoutRows: tuples x u32 row ids]
//	       keys x i64  keys x u32 starts
//
// The length leads so that a corrupt section is skipped and degrades
// alone; the checksum trails so that the arrays are read once on their way
// to the file. Each section is handed to the file before its source
// returns, that is before a cracker column is unlatched.
func writeState(w *writer, indexes []IndexSource) error {
	if uint64(len(indexes)) > maxU32 {
		return ErrFrame
	}
	w.bytes([]byte(stateMagic))
	w.u32(uint32(len(indexes)))
	w.sum()
	for _, src := range indexes {
		if err := src(func(st IndexState) error {
			if err := st.frameable(); err != nil {
				return err
			}
			w.u64(sectionLen(len(st.Attr), st.Layout, uint64(len(st.Vals)), uint64(len(st.Keys))))
			w.u16(uint16(len(st.Attr)))
			w.bytes([]byte(st.Attr))
			w.u8(uint8(st.Kind))
			w.u8(uint8(st.Layout))
			w.u64(uint64(st.Ref))
			w.u32(uint32(len(st.Vals)))
			w.u32(uint32(len(st.Keys)))
			w.u64(uint64(st.Accesses))
			w.u64(uint64(st.Hits))
			w.u8(st.StatsState)
			w.int64s(st.Vals, 0, nil)
			w.uint32s(st.Rows)
			w.int64s(st.Keys, 0, nil)
			w.uint32s(st.Starts)
			w.sum()
			return w.flush()
		}); err != nil {
			return err
		}
	}
	return w.flush()
}

// frameable reports whether the section's length fields can hold the state
// and its arrays are the ones its kind and layout call for.
func (st *IndexState) frameable() error {
	if len(st.Attr) > MaxNameLen || uint64(len(st.Vals)) > maxU32 || uint64(len(st.Keys)) > maxU32 {
		return fmt.Errorf("durable: index state %.40q: %w", st.Attr, ErrFrame)
	}
	wantRows := 0
	if st.Layout == LayoutRows {
		wantRows = len(st.Vals)
	}
	if !validShape(st.Kind, st.Layout) || len(st.Rows) != wantRows || len(st.Starts) != len(st.Keys) {
		return fmt.Errorf("durable: index state %q: arrays do not match kind %d, layout %d", st.Attr, st.Kind, st.Layout)
	}
	return nil
}

// validShape reports whether an index of kind can be stored under lay:
// every index carries row ids, and only a cracker packs them.
func validShape(kind IndexKind, lay Layout) bool {
	switch kind {
	case IndexCracker:
		return lay == LayoutRows || lay == LayoutPacked
	case IndexSorted:
		return lay == LayoutRows
	}
	return false
}

// EncodeState is the state file of states in memory: what WriteSnapshot
// streams to disk, into a buffer.
func EncodeState(states []IndexState) ([]byte, error) {
	indexes := make([]IndexSource, len(states))
	for i := range states {
		indexes[i] = func(emit func(IndexState) error) error { return emit(states[i]) }
	}
	var buf bytes.Buffer
	err := writeState(newWriter(&buf), indexes)
	return buf.Bytes(), err
}

// DecodeState parses the adaptive-state file. A corrupt header fails
// the whole file (the caller degrades to data-only recovery); a corrupt
// section is skipped and counted in dropped.
func DecodeState(data []byte) (states []IndexState, dropped int, err error) {
	return readState(newReader(bytes.NewReader(data), int64(len(data)), nil))
}

// readState decodes a state file, each array straight into the slice the
// restored index keeps.
func readState(r *reader) (states []IndexState, dropped int, err error) {
	magic := r.str(len(stateMagic))
	count := int(r.u32())
	if !r.sum() || magic != stateMagic {
		return nil, 0, fmt.Errorf("durable: state: bad header")
	}
	for i := 0; i < count; i++ {
		if r.err != nil || r.left < 8+4 {
			return states, dropped + count - i, nil // truncated: the rest is gone
		}
		n := r.u64()
		if n > uint64(r.left-4) {
			return states, dropped + count - i, nil
		}
		end := r.left - int64(n)
		st, ok := readIndexState(r, n)
		r.skip(r.left - end) // what a malformed body left unread
		if !r.sum() || !ok {
			dropped++
			continue
		}
		states = append(states, st)
	}
	return states, dropped, nil
}

// readIndexState decodes a section body of n bytes, or as much of it as
// it takes to find that its fields and n disagree.
func readIndexState(r *reader, n uint64) (st IndexState, ok bool) {
	if n < sectionFixed {
		return st, false
	}
	attrLen := int(r.u16())
	if n < sectionFixed+uint64(attrLen) {
		return st, false
	}
	st.Attr = r.str(attrLen)
	st.Kind = IndexKind(r.u8())
	st.Layout = Layout(r.u8())
	st.Ref = int64(r.u64())
	nVals, nKeys := r.u32(), r.u32()
	st.Accesses = int64(r.u64())
	st.Hits = int64(r.u64())
	st.StatsState = r.u8()
	if !validShape(st.Kind, st.Layout) || n != sectionLen(attrLen, st.Layout, uint64(nVals), uint64(nKeys)) {
		return st, false
	}
	st.Vals, _, _ = r.int64s(int(nVals))
	if st.Layout == LayoutRows {
		st.Rows = r.uint32s(int(nVals))
	}
	st.Keys, _, _ = r.int64s(int(nKeys))
	st.Starts = r.uint32s(int(nKeys))
	return st, r.err == nil
}
