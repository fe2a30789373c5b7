package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
)

// chunkSize is the scratch every snapshot file is encoded and decoded
// through: arrays move between memory and the file one chunk at a time, so
// nothing between a live array and the disk is sized by the row count. A
// chunk that fits the second-level cache is encoded and handed to the
// kernel while it is still there.
const chunkSize = 256 << 10

// ErrFrame is the error of a name or an array the format's length fields
// cannot express. The encoders fail with it instead of truncating the
// length, which would leave a checksummed file that decodes to other data.
var ErrFrame = errors.New("durable: too long for the snapshot format")

// MaxNameLen is the longest attribute name a snapshot can frame.
const MaxNameLen = math.MaxUint16

// maxU32 is the limit of the format's 32-bit counts.
const maxU32 = math.MaxUint32

// writer streams little-endian fields into w through one chunk, keeping
// the CRC32C of everything put since the last sum. The first write error
// sticks: later calls do nothing and flush reports it.
type writer struct {
	w     io.Writer
	buf   []byte // the chunk
	n     int    // bytes of buf filled
	from  int    // buf[from:n] is not in crc yet
	crc   uint32
	total int64 // bytes handed to w
	err   error
}

// newWriter returns a writer over w with its own chunk; reset points it
// at the next file.
func newWriter(w io.Writer) *writer {
	return &writer{w: w, buf: make([]byte, chunkSize)}
}

// reset points the writer at w, which must follow a flush.
func (s *writer) reset(w io.Writer) {
	s.w, s.crc = w, 0
}

// flush hands the filled part of the chunk to the file.
func (s *writer) flush() error {
	s.crc = crc32.Update(s.crc, castagnoli, s.buf[s.from:s.n])
	if s.err == nil && s.n > 0 {
		var m int
		m, s.err = s.w.Write(s.buf[:s.n])
		s.total += int64(m)
	}
	s.n, s.from = 0, 0
	return s.err
}

// room returns the unfilled rest of the chunk, at least need bytes of it.
func (s *writer) room(need int) []byte {
	if len(s.buf)-s.n < need {
		s.flush()
	}
	return s.buf[s.n:]
}

func (s *writer) bytes(p []byte) {
	for len(p) > 0 {
		k := copy(s.room(1), p)
		s.n += k
		p = p[k:]
	}
}

func (s *writer) u8(v uint8) {
	s.room(1)[0] = v
	s.n++
}

func (s *writer) u16(v uint16) {
	binary.LittleEndian.PutUint16(s.room(2), v)
	s.n += 2
}

func (s *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.room(4), v)
	s.n += 4
}

func (s *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.room(8), v)
	s.n += 8
}

// int64s puts vals, whose first element is row first of its column, with
// the values patch names for rows in range written in their place: patch
// is sorted by row, and what is left of it is returned.
func (s *writer) int64s(vals []int64, first int, patch []RowValue) []RowValue {
	for len(vals) > 0 {
		b := s.room(8)
		k := min(len(b)/8, len(vals))
		b = b[:8*k]
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		for ; len(patch) > 0 && int(patch[0].Row) < first+k; patch = patch[1:] {
			binary.LittleEndian.PutUint64(b[8*(int(patch[0].Row)-first):], uint64(patch[0].Val))
		}
		s.n += 8 * k
		vals, first = vals[k:], first+k
	}
	return patch
}

func (s *writer) uint32s(vals []uint32) {
	for len(vals) > 0 {
		b := s.room(4)
		k := min(len(b)/4, len(vals))
		b = b[:4*k]
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		s.n += 4 * k
		vals = vals[k:]
	}
}

// sum puts the CRC32C of everything put since the last sum (or reset) and
// starts the next one after it.
func (s *writer) sum() {
	b := s.room(4)
	s.crc = crc32.Update(s.crc, castagnoli, s.buf[s.from:s.n])
	binary.LittleEndian.PutUint32(b, s.crc)
	s.n += 4
	s.from, s.crc = s.n, 0
}

// reader is the writer's inverse over an input of known size: left counts
// the bytes not consumed yet, and nothing is allocated for a length field
// that the bytes left cannot back. The first error sticks.
type reader struct {
	r    io.Reader
	buf  []byte
	crc  uint32
	left int64
	err  error
}

// newReader returns a reader of the size bytes of r through chunk, which
// it allocates when nil.
func newReader(r io.Reader, size int64, chunk []byte) *reader {
	if chunk == nil {
		chunk = make([]byte, chunkSize)
	}
	return &reader{r: r, buf: chunk, left: size}
}

// next reads the next n <= chunkSize bytes into the chunk; the result is
// valid until the next call, and all zeros after an error.
func (r *reader) next(n int) []byte {
	b := r.buf[:n]
	if r.err == nil && int64(n) > r.left {
		r.err = io.ErrUnexpectedEOF
	}
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
	if r.err != nil {
		clear(b)
		return b
	}
	r.left -= int64(n)
	r.crc = crc32.Update(r.crc, castagnoli, b)
	return b
}

func (r *reader) u8() uint8   { return r.next(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.next(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.next(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.next(8)) }

// str reads n bytes as a string.
func (r *reader) str(n int) string { return string(r.next(n)) }

// backs reports whether there is an array of n > 0 elements of width bytes
// to decode: the bytes left hold it. One they do not hold is an error.
func (r *reader) backs(n int, width int64) bool {
	if n != 0 && r.err == nil && int64(n) > r.left/width {
		r.err = io.ErrUnexpectedEOF
	}
	return n != 0 && r.err == nil
}

// int64s decodes n values, a chunk at a time, into a slice of exactly n,
// and returns their smallest and largest on the way: (0, -1), the pair
// column.Bounds gives an empty slice, for none.
func (r *reader) int64s(n int) (out []int64, lo, hi int64) {
	if !r.backs(n, 8) {
		return nil, 0, -1
	}
	out = make([]int64, n)
	lo, hi = math.MaxInt64, math.MinInt64
	for dst := out; len(dst) > 0 && r.err == nil; {
		k := min(len(r.buf)/8, len(dst))
		b := r.next(8 * k)
		for i := range dst[:k] {
			v := int64(binary.LittleEndian.Uint64(b[8*i:]))
			dst[i] = v
			lo, hi = min(lo, v), max(hi, v)
		}
		dst = dst[k:]
	}
	return out, lo, hi
}

// uint32s decodes n values like int64s.
func (r *reader) uint32s(n int) []uint32 {
	if !r.backs(n, 4) {
		return nil
	}
	out := make([]uint32, n)
	for dst := out; len(dst) > 0 && r.err == nil; {
		k := min(len(r.buf)/4, len(dst))
		b := r.next(4 * k)
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		dst = dst[k:]
	}
	return out
}

// skip consumes n bytes unread.
func (r *reader) skip(n int64) {
	for n > 0 && r.err == nil {
		k := min(int64(len(r.buf)), n)
		r.next(int(k))
		n -= k
	}
}

// sum reads a checksum and reports whether it is the CRC32C of everything
// read since the last sum; the next one starts after it.
func (r *reader) sum() bool {
	want := r.crc
	got := r.u32()
	r.crc = 0
	return r.err == nil && got == want
}
