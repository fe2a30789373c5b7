package flight

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"holistic/internal/obs"
)

// Dump wire format, all little-endian, framed exactly like the
// durable manifest: [u32 payload len][u32 crc32c(payload)][payload].
//
//	payload := header | count x 64-byte event | names
//	header  := magic u32 | version u32 | trigger u32 | eventSize u32 |
//	           count u64 | generation u64 | epochUnixNano i64 |
//	           wallUnixNano i64                        (48 bytes)
//	event   := seq u64 | t i64 | kind u8 | code u8 | pad u16 |
//	           id u32 | args 5 x i64                  (64 bytes)
//	names   := count u32 | (len u32 | bytes)...
const (
	dumpMagic     = uint32('H') | uint32('F')<<8 | uint32('R')<<16 | uint32('1')<<24
	dumpVersion   = 1
	dumpEventSize = 64
	dumpHeaderLen = 48
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func f64bits(f float64) uint64  { return math.Float64bits(f) }
func f64from(u int64) float64   { return math.Float64frombits(uint64(u)) }
func usFromNS(ns int64) float64 { return float64(ns) / 1e3 }

// Dump is one decoded flight-recorder dump.
type Dump struct {
	Version       uint32
	Trigger       Trigger
	Generation    uint64
	EpochUnixNano int64
	WallUnixNano  int64
	Events        []Event
	Names         []string // interned id -> attribute name
}

// Encode snapshots the ring and serializes it as a checksummed dump
// payload ready to be written to a flight-<gen> file or an io.Writer.
func Encode(r *Recorder, trig Trigger, gen uint64) []byte {
	events := r.Snapshot()
	names := r.Names()
	nameBytes := 4
	for _, n := range names {
		nameBytes += 4 + len(n)
	}
	payload := make([]byte, 0, dumpHeaderLen+len(events)*dumpEventSize+nameBytes)
	payload = binary.LittleEndian.AppendUint32(payload, dumpMagic)
	payload = binary.LittleEndian.AppendUint32(payload, dumpVersion)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(trig))
	payload = binary.LittleEndian.AppendUint32(payload, dumpEventSize)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(events)))
	payload = binary.LittleEndian.AppendUint64(payload, gen)
	var epoch int64
	if r != nil {
		epoch = r.epoch.UnixNano()
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(epoch))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(time.Now().UnixNano()))
	for _, e := range events {
		payload = binary.LittleEndian.AppendUint64(payload, e.Seq)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.T))
		payload = append(payload, byte(e.Kind), e.Code, 0, 0)
		payload = binary.LittleEndian.AppendUint32(payload, e.ID)
		for _, a := range e.Args {
			payload = binary.LittleEndian.AppendUint64(payload, uint64(a))
		}
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(names)))
	for _, n := range names {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(n)))
		payload = append(payload, n...)
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// Decode validates the frame checksum and parses a dump produced by
// Encode. Any truncation, bit flip, or torn write fails loudly.
func Decode(data []byte) (*Dump, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("flight: dump truncated (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if uint64(8+n) != uint64(len(data)) {
		return nil, fmt.Errorf("flight: dump length mismatch: frame says %d, have %d", n, len(data)-8)
	}
	payload := data[8:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("flight: dump checksum mismatch")
	}
	if len(payload) < dumpHeaderLen {
		return nil, fmt.Errorf("flight: dump header truncated")
	}
	if binary.LittleEndian.Uint32(payload) != dumpMagic {
		return nil, fmt.Errorf("flight: bad magic")
	}
	d := &Dump{
		Version:       binary.LittleEndian.Uint32(payload[4:]),
		Trigger:       Trigger(binary.LittleEndian.Uint32(payload[8:])),
		EpochUnixNano: int64(binary.LittleEndian.Uint64(payload[32:])),
		WallUnixNano:  int64(binary.LittleEndian.Uint64(payload[40:])),
	}
	if d.Version != dumpVersion {
		return nil, fmt.Errorf("flight: unsupported dump version %d", d.Version)
	}
	if sz := binary.LittleEndian.Uint32(payload[12:]); sz != dumpEventSize {
		return nil, fmt.Errorf("flight: unsupported event size %d", sz)
	}
	count := binary.LittleEndian.Uint64(payload[16:])
	d.Generation = binary.LittleEndian.Uint64(payload[24:])
	body := payload[dumpHeaderLen:]
	// Both length fields are bounded by the bytes actually present before
	// anything is sized from them: a CRC is no barrier against a crafted
	// file, and count*dumpEventSize overflows for count >= 2^58.
	if count > uint64(len(body))/dumpEventSize {
		return nil, fmt.Errorf("flight: dump body truncated: %d events do not fit in %d bytes", count, len(body))
	}
	need := count * dumpEventSize
	d.Events = make([]Event, count)
	for i := range d.Events {
		rec := body[uint64(i)*dumpEventSize:]
		e := &d.Events[i]
		e.Seq = binary.LittleEndian.Uint64(rec)
		e.T = int64(binary.LittleEndian.Uint64(rec[8:]))
		e.Kind = Kind(rec[16])
		e.Code = rec[17]
		e.ID = binary.LittleEndian.Uint32(rec[20:])
		for j := range e.Args {
			e.Args[j] = int64(binary.LittleEndian.Uint64(rec[24+8*j:]))
		}
	}
	rest := body[need:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("flight: name table truncated")
	}
	nNames := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(nNames) > uint64(len(rest))/4 { // every name carries a 4-byte length
		return nil, fmt.Errorf("flight: name table truncated: %d names do not fit in %d bytes", nNames, len(rest))
	}
	d.Names = make([]string, 0, nNames)
	for i := uint32(0); i < nNames; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("flight: name %d truncated", i)
		}
		l := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(l) {
			return nil, fmt.Errorf("flight: name %d truncated", i)
		}
		d.Names = append(d.Names, string(rest[:l]))
		rest = rest[l:]
	}
	return d, nil
}

// Fields renders an event as a flat JSON-friendly map for the
// /debug/holistic/flight endpoint and dump inspection tools. names is
// the intern table for EvRefine attribute resolution (may be nil).
func (e Event) Fields(names []string) map[string]any {
	f := map[string]any{
		"seq":  e.Seq,
		"t_us": usFromNS(e.T),
		"kind": e.Kind.String(),
	}
	switch e.Kind {
	case EvQuery:
		f["op"] = obs.Op(e.Code).String()
		f["query_seq"] = e.Args[0]
		f["total_us"] = usFromNS(e.Args[1])
		f["drive_us"] = usFromNS(e.Args[2])
		f["refine_us"] = usFromNS(e.Args[3])
		f["result"] = e.Args[4]
	case EvRep:
		f["rep"] = obs.Rep(e.Code).String()
		f["query_seq"] = e.Args[0]
		f["est_driving_rows"] = e.Args[1]
		f["conjuncts"] = e.Args[2]
	case EvStrategy:
		f["strategy"] = obs.Strat(e.Code).String()
		f["query_seq"] = e.Args[0]
		f["stat0"] = f64from(e.Args[1])
		f["stat1"] = f64from(e.Args[2])
	case EvRefine:
		name := "?"
		if int(e.ID) < len(names) {
			name = names[e.ID]
		}
		f["attr"] = name
		f["refined"] = e.Args[0]
		f["merged_updates"] = e.Args[1]
		f["attempts"] = e.Args[2]
		f["distance"] = f64from(e.Args[3])
		f["pieces"] = e.Args[4]
	case EvCycle:
		f["cycle"] = e.Args[0]
		f["workers"] = e.Args[1]
		f["refinements"] = e.Args[2]
		f["merged_updates"] = e.Args[3]
		f["wall_us"] = usFromNS(e.Args[4])
	case EvCheckpoint:
		f["generation"] = e.Args[0]
		f["records"] = e.Args[1]
		f["duration_us"] = usFromNS(e.Args[2])
		f["mb"] = float64(e.Args[3]) / 1e6
		if e.Args[2] > 0 {
			f["mb_per_s"] = float64(e.Args[3]) * 1e3 / float64(e.Args[2])
		}
	case EvRecovery:
		f["generation"] = e.Args[0]
		f["replayed_records"] = e.Args[1]
		f["torn_wal_tail"] = e.Args[2] != 0
		f["restored_indexes"] = e.Args[3]
		f["dropped_indexes"] = e.Args[4]
	case EvAnomaly:
		f["trigger"] = Trigger(e.Code).String()
		f["window_p99_us"] = usFromNS(e.Args[0])
		f["baseline_p99_us"] = usFromNS(e.Args[1])
		f["convergence_ratio"] = f64from(e.Args[2])
		f["worker_panics"] = e.Args[3]
		f["window_samples"] = e.Args[4]
	}
	return f
}
