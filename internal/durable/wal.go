package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// castagnoli is the CRC32C polynomial table; every checksum the durable
// layer writes (WAL frames, segment trailers, manifest frames) uses it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags one logical write operation in the WAL.
type Kind uint8

const (
	KindInsert Kind = 1 // A = value
	KindDelete Kind = 2 // A = value
	KindUpdate Kind = 3 // A = old value, B = new value
)

// Record is one logged write. Records are framed as
//
//	[u32 payload len][u32 crc32c(payload)][payload]
//
// with payload = kind byte, u16 attribute length, attribute bytes, and
// two little-endian int64 operands. A torn frame (short header, short
// payload, or checksum mismatch) ends replay of its segment.
type Record struct {
	Kind Kind
	Attr string
	A, B int64
}

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncGroup (the default) fsyncs on Commit with group commit: one
	// leader syncs the tail for every record appended so far, and
	// followers whose record that sync covered return without another
	// fsync.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs inside every Append.
	SyncAlways
	// SyncNone never fsyncs on the write path; the segment is synced
	// only on rotation and close. Crash durability is limited to
	// snapshots.
	SyncNone
)

// Log is one open WAL segment. Records are appended under a mutex (one
// file write per record, so every record boundary is one fault-
// injection kill point); Commit provides the group-commit fsync.
type Log struct {
	fs     FS
	name   string
	policy SyncPolicy

	mu   sync.Mutex // serializes appends and guards f, buf, err
	f    File
	buf  []byte
	recs int64
	err  error // sticky: after a write or sync error the log is dead

	// syncMu serializes group-commit leaders; followers acquiring it
	// after the leader observe synced already past their record.
	syncMu   sync.Mutex
	appended atomic.Uint64 // last appended seq
	synced   atomic.Uint64 // last seq known durable
	syncs    atomic.Int64  // fsyncs issued (telemetry)
}

// CreateLog creates segment name and positions its sequence numbers
// after startSeq: the first appended record gets startSeq+1.
func CreateLog(fs FS, name string, startSeq uint64, policy SyncPolicy) (*Log, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fs, name: name, policy: policy, f: f}
	l.appended.Store(startSeq)
	l.synced.Store(startSeq)
	return l, nil
}

// Name returns the segment file name.
func (l *Log) Name() string { return l.name }

// Records returns the number of records appended to this segment.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Seq returns the last appended sequence number.
func (l *Log) Seq() uint64 { return l.appended.Load() }

// Syncs returns the number of fsyncs issued on this segment.
//
//holistic:noalloc
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// Append frames and writes one record, returning its sequence number.
// Under SyncAlways the record is durable on return; otherwise call
// Commit(seq) before acknowledging the operation.
//
//holistic:alloc-ok durable write path is cold; the frame buffer is reused across appends
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	l.buf = appendFrame(l.buf[:0], rec)
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = err
		return 0, err
	}
	seq := l.appended.Add(1)
	l.recs++
	if l.policy == SyncAlways {
		l.syncs.Add(1)
		if err := l.f.Sync(); err != nil {
			l.err = err
			return 0, err
		}
		l.synced.Store(seq)
	}
	return seq, nil
}

// Commit makes the record with the given sequence number durable. Under
// SyncGroup concurrent committers elect a leader whose single fsync
// covers every record appended before it.
//
//holistic:alloc-ok durable write path is cold; group commit amortizes the fsync
func (l *Log) Commit(seq uint64) error {
	switch l.policy {
	case SyncNone:
		return nil
	case SyncAlways:
		if l.synced.Load() >= seq {
			return nil
		}
		return l.stickyErr()
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= seq {
		return nil
	}
	if err := l.stickyErr(); err != nil {
		return err
	}
	target := l.appended.Load()
	if err := l.sync(); err != nil {
		return err
	}
	l.synced.Store(target)
	return nil
}

// Sync flushes the segment regardless of policy (rotation and clean
// shutdown use it).
func (l *Log) Sync() error {
	if err := l.sync(); err != nil {
		return err
	}
	l.synced.Store(l.appended.Load())
	return nil
}

// Close flushes and closes the segment.
func (l *Log) Close() error {
	syncErr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	closeErr := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = fmt.Errorf("durable: wal segment %s is closed", l.name)
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// sync runs f.Sync under the append mutex and records a failure as the
// sticky error.
func (l *Log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.syncs.Add(1)
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	return nil
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// appendFrame encodes rec as one checksummed frame appended to dst.
func appendFrame(dst []byte, rec Record) []byte {
	payloadStart := len(dst) + 8
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Attr)))
	dst = append(dst, rec.Attr...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.A))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.B))
	payload := dst[payloadStart:]
	binary.LittleEndian.PutUint32(dst[payloadStart-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[payloadStart-4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// ReadLog parses a WAL segment, returning every intact record in append
// order. Parsing stops at the first torn frame — a short header, a
// payload extending past the data, a checksum mismatch, or a malformed
// payload — which after a crash is always the unsynced tail; torn
// reports whether such a tail was dropped.
func ReadLog(data []byte) (recs []Record, torn bool) {
	for len(data) > 0 {
		if len(data) < 8 {
			return recs, true
		}
		// The length in 64 bits: as a uint32, 8+n wraps from 2^32-8 on and
		// a hostile frame would pass the bound only to slice out of range.
		n := uint64(binary.LittleEndian.Uint32(data))
		sum := binary.LittleEndian.Uint32(data[4:])
		if 8+n > uint64(len(data)) {
			return recs, true
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, true
		}
		rec, ok := decodePayload(payload)
		if !ok {
			return recs, true
		}
		recs = append(recs, rec)
		data = data[8+n:]
	}
	return recs, false
}

func decodePayload(p []byte) (Record, bool) {
	if len(p) < 3 {
		return Record{}, false
	}
	kind := Kind(p[0])
	if kind < KindInsert || kind > KindUpdate {
		return Record{}, false
	}
	attrLen := int(binary.LittleEndian.Uint16(p[1:]))
	if len(p) != 3+attrLen+16 {
		return Record{}, false
	}
	attr := string(p[3 : 3+attrLen])
	a := int64(binary.LittleEndian.Uint64(p[3+attrLen:]))
	b := int64(binary.LittleEndian.Uint64(p[3+attrLen+8:]))
	return Record{Kind: kind, Attr: attr, A: a, B: b}, true
}

// WALName names a segment: the snapshot generation the segment follows
// plus a part number that increments on every reopen, so a
// possibly-torn file is never appended to again.
func WALName(gen uint64, part int) string {
	return fmt.Sprintf("wal-%012d-%04d.log", gen, part)
}

// parseWALName inverts WALName.
func parseWALName(name string) (gen uint64, part int, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if _, err := fmt.Sscanf(body, "%012d-%04d", &gen, &part); err != nil {
		return 0, 0, false
	}
	return gen, part, true
}

// walSegmentsFrom returns the names of every WAL segment with
// generation >= gen, ordered by (generation, part) — the replay order.
func walSegmentsFrom(names []string, gen uint64) []string {
	type seg struct {
		gen  uint64
		part int
		name string
	}
	var segs []seg
	for _, name := range names {
		g, p, ok := parseWALName(name)
		if ok && g >= gen {
			segs = append(segs, seg{g, p, name})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].gen != segs[j].gen {
			return segs[i].gen < segs[j].gen
		}
		return segs[i].part < segs[j].part
	})
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.name
	}
	return out
}

// maxWALPart returns the highest part number present for gen, or -1.
func maxWALPart(names []string, gen uint64) int {
	maxPart := -1
	for _, name := range names {
		if g, p, ok := parseWALName(name); ok && g == gen && p > maxPart {
			maxPart = p
		}
	}
	return maxPart
}
