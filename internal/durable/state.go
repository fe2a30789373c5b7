package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// stateMagic heads the adaptive-state file.
const stateMagic = "HSTA1\n"

// IndexKind tags which physical index an IndexState describes.
type IndexKind uint8

const (
	// IndexCracker is a cracker column: values in cracked physical
	// order with their row ids plus the piece-boundary table.
	IndexCracker IndexKind = 1
	// IndexSorted is a fully sorted run (offline / online indexing).
	IndexSorted IndexKind = 2
)

// IndexState is the serialized adaptive state of one index: the
// physical array the refinement effort produced and, for crackers, the
// piece boundaries, so recovery rebuilds the index by copying arrays
// and re-inserting boundary keys instead of re-cracking. The access
// statistics let the holistic daemon resume its strategy bookkeeping.
//
// Index state is an optimization, never a source of truth: the column
// segments alone reconstruct the data, so a corrupt section here drops
// only that index back to unrefined.
type IndexState struct {
	Attr    string
	Kind    IndexKind
	Vals    []int64
	Rows    []uint32
	HasRows bool
	Keys    []int64  // cracker piece lower bounds; Keys[0] is the sentinel
	Starts  []uint32 // piece start offsets, parallel to Keys

	Accesses, Hits int64
	StatsState     uint8 // stats.State; 0 = not registered
}

// StateName names the adaptive-state file at generation gen.
func StateName(gen uint64) string {
	return fmt.Sprintf("state-%012d.bin", gen)
}

// EncodeState serializes the index states. Each section carries its own
// CRC32C so one corrupt index degrades alone.
func EncodeState(states []IndexState) []byte {
	buf := append([]byte(nil), stateMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(states)))
	for _, st := range states {
		section := encodeIndexState(st)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(section)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(section, castagnoli))
		buf = append(buf, section...)
	}
	return buf
}

// DecodeState parses the adaptive-state file. A corrupt header fails
// the whole file (the caller degrades to data-only recovery); a corrupt
// section is skipped and counted in dropped.
func DecodeState(data []byte) (states []IndexState, dropped int, err error) {
	if len(data) < len(stateMagic)+4 || string(data[:len(stateMagic)]) != stateMagic {
		return nil, 0, fmt.Errorf("durable: state: bad header")
	}
	p := data[len(stateMagic):]
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	for i := 0; i < count; i++ {
		if len(p) < 8 {
			return states, dropped + count - i, nil
		}
		n := int(binary.LittleEndian.Uint32(p))
		sum := binary.LittleEndian.Uint32(p[4:])
		p = p[8:]
		if n > len(p) {
			return states, dropped + count - i, nil
		}
		section := p[:n]
		p = p[n:]
		if crc32.Checksum(section, castagnoli) != sum {
			dropped++
			continue
		}
		st, ok := decodeIndexState(section)
		if !ok {
			dropped++
			continue
		}
		states = append(states, st)
	}
	return states, dropped, nil
}

func encodeIndexState(st IndexState) []byte {
	size := 2 + len(st.Attr) + 2 + 12 +
		8*len(st.Vals) + 4*len(st.Rows) + 12*len(st.Keys) + 17
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(st.Attr)))
	buf = append(buf, st.Attr...)
	hasRows := byte(0)
	if st.HasRows {
		hasRows = 1
	}
	buf = append(buf, byte(st.Kind), hasRows)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Vals)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Keys)))
	buf = appendInt64s(buf, st.Vals)
	buf = appendUint32s(buf, st.Rows)
	buf = appendInt64s(buf, st.Keys)
	buf = appendUint32s(buf, st.Starts)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Accesses))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Hits))
	return append(buf, st.StatsState)
}

func decodeIndexState(p []byte) (IndexState, bool) {
	var st IndexState
	if len(p) < 2 {
		return st, false
	}
	attrLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < attrLen+14 {
		return st, false
	}
	st.Attr = string(p[:attrLen])
	p = p[attrLen:]
	st.Kind = IndexKind(p[0])
	if p[1] > 1 {
		return st, false // a flag byte EncodeState never writes
	}
	st.HasRows = p[1] == 1
	nVals := int(binary.LittleEndian.Uint32(p[2:]))
	nRows := int(binary.LittleEndian.Uint32(p[6:]))
	nKeys := int(binary.LittleEndian.Uint32(p[10:]))
	p = p[14:]
	if st.Kind != IndexCracker && st.Kind != IndexSorted {
		return st, false
	}
	if len(p) != 8*nVals+4*nRows+12*nKeys+17 {
		return st, false
	}
	st.Vals, p = readInt64s(p, nVals)
	st.Rows, p = readUint32s(p, nRows)
	st.Keys, p = readInt64s(p, nKeys)
	st.Starts, p = readUint32s(p, nKeys)
	st.Accesses = int64(binary.LittleEndian.Uint64(p))
	st.Hits = int64(binary.LittleEndian.Uint64(p[8:]))
	st.StatsState = p[16]
	return st, true
}
