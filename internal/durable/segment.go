package durable

import (
	"bytes"
	"fmt"
)

// segMagic heads every column segment file.
const segMagic = "HSEG1\n"

// ColumnData is the durable logical content of one attribute: the base
// array (updates folded in; deleted rows keep the value they last
// held), the appended tail (row id of Tails[i] is len(Base)+i; dead
// tails likewise keep their last value), and the sorted tombstone rows.
// Keeping last values in place lets recovery rebuild a first-touch
// cracker from the base array and replay the deletions exactly as the
// normal write path would have.
type ColumnData struct {
	Name  string
	Base  []int64
	Tails []int64
	Dead  []uint32
	// Lo and Hi are the smallest and largest value of Base — (0, -1) when
	// it is empty — as the decoder saw them go by. The encoder ignores
	// them.
	Lo, Hi int64
	// Patch is the write side's way of folding updates in without a copy
	// of Base: the rows, ascending, whose value is Val and not what Base
	// or Tails holds. The segment is written as if they had been stored;
	// a decoded segment has none.
	Patch []RowValue
}

// RowValue overrides the value of one row of a column being written.
type RowValue struct {
	Row uint32
	Val int64
}

// NextRow returns the row id the next insert on this attribute takes.
func (c *ColumnData) NextRow() uint32 {
	return uint32(len(c.Base) + len(c.Tails))
}

// SegmentName names the segment file for attr at generation gen.
func SegmentName(gen uint64, attr string) string {
	return fmt.Sprintf("seg-%012d-%s.col", gen, attr)
}

// frameable reports ErrFrame when the segment's length fields cannot hold
// the column, or its patch list is not ascending rows of the column.
func (c *ColumnData) frameable() error {
	rows := uint64(len(c.Base)) + uint64(len(c.Tails))
	if len(c.Name) > MaxNameLen || rows > maxU32 || uint64(len(c.Dead)) > maxU32 {
		return fmt.Errorf("durable: segment %.40q: %w", c.Name, ErrFrame)
	}
	for i, p := range c.Patch {
		if uint64(p.Row) >= rows || (i > 0 && p.Row <= c.Patch[i-1].Row) {
			return fmt.Errorf("durable: segment %q: patch rows out of order or range", c.Name)
		}
	}
	return nil
}

// writeSegment streams one column: magic, name, array lengths, the
// arrays, and a trailing CRC32C over everything before it. The column
// must be frameable.
func writeSegment(w *writer, c *ColumnData) {
	w.bytes([]byte(segMagic))
	w.u16(uint16(len(c.Name)))
	w.bytes([]byte(c.Name))
	w.u32(uint32(len(c.Base)))
	w.u32(uint32(len(c.Tails)))
	w.u32(uint32(len(c.Dead)))
	patch := w.int64s(c.Base, 0, c.Patch)
	w.int64s(c.Tails, len(c.Base), patch)
	w.uint32s(c.Dead)
	w.sum()
}

// EncodeSegment is the segment file of c in memory: what WriteSnapshot
// streams to disk, into a buffer.
func EncodeSegment(c ColumnData) ([]byte, error) {
	if err := c.frameable(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := newWriter(&buf)
	writeSegment(w, &c)
	err := w.flush()
	return buf.Bytes(), err
}

// DecodeSegment parses and checksum-validates one column segment.
func DecodeSegment(data []byte) (ColumnData, error) {
	return readSegment(newReader(bytes.NewReader(data), int64(len(data)), nil))
}

// readSegment decodes a segment file, each array straight into the slice
// the column keeps.
func readSegment(r *reader) (ColumnData, error) {
	var c ColumnData
	if r.str(len(segMagic)) != segMagic {
		return c, fmt.Errorf("durable: segment: bad header")
	}
	name := r.str(int(r.u16()))
	nBase, nTails, nDead := int64(r.u32()), int64(r.u32()), int64(r.u32())
	if r.err != nil || r.left != 8*nBase+8*nTails+4*nDead+4 {
		return c, fmt.Errorf("durable: segment: length mismatch")
	}
	c.Name = name
	c.Base, c.Lo, c.Hi = r.int64s(int(nBase))
	c.Tails, _, _ = r.int64s(int(nTails))
	c.Dead = r.uint32s(int(nDead))
	if !r.sum() {
		return ColumnData{}, fmt.Errorf("durable: segment: checksum mismatch")
	}
	return c, nil
}

// writeFileSync creates name with the given content and fsyncs it.
func writeFileSync(fs FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
