package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
)

// manifestTmp is the staging name for manifest writes; the atomic
// rename onto the final generation name is the snapshot's commit point.
const manifestTmp = "manifest.tmp"

// cleanMarker is the clean-shutdown marker file. Its presence (with a
// matching generation) means Close checkpointed and flushed everything,
// so the next open has no WAL tail to replay. It is deleted first thing
// on every open, making any later crash visibly unclean.
const cleanMarker = "CLEAN"

// Manifest is the snapshot's root: it names the column segments and
// adaptive-state file of one generation and carries the small
// recovery-relevant counters. Generations are a strictly increasing
// snapshot counter — every checkpoint writes a fresh generation and
// never touches the files of the previous (still valid, still
// recoverable) one. WAL segments are named for the generation they
// follow; the replay tail of generation G is every segment with
// generation >= G, in (generation, part) order.
type Manifest struct {
	Generation uint64           `json:"generation"`
	Mode       string           `json:"mode"`
	Columns    []ManifestColumn `json:"columns"`
	StateFile  string           `json:"state_file,omitempty"`
	Daemon     *DaemonState     `json:"daemon,omitempty"`
}

// ManifestColumn references one column segment file.
type ManifestColumn struct {
	Attr string `json:"attr"`
	File string `json:"file"`
}

// DaemonState carries the holistic daemon's cumulative counters across
// restarts so convergence telemetry continues instead of resetting.
type DaemonState struct {
	Cycles        int64 `json:"cycles"`
	Workers       int64 `json:"workers"`
	WorkerTimeNS  int64 `json:"worker_time_ns"`
	WallNS        int64 `json:"wall_ns"`
	Refinements   int64 `json:"refinements"`
	MergedUpdates int64 `json:"merged_updates"`
	TotalAttempts int64 `json:"total_attempts"`
	BusyRerolls   int64 `json:"busy_rerolls"`
}

// ManifestName names the manifest file of generation gen.
func ManifestName(gen uint64) string {
	return fmt.Sprintf("manifest-%012d.json", gen)
}

func parseManifestName(name string) (gen uint64, ok bool) {
	if !strings.HasPrefix(name, "manifest-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "manifest-"), ".json")
	if _, err := fmt.Sscanf(body, "%012d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// manifestGens extracts the generations present in names, descending.
func manifestGens(names []string) []uint64 {
	var gens []uint64
	for _, name := range names {
		if g, ok := parseManifestName(name); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}

// WriteManifest frames, stages, fsyncs and atomically renames the
// manifest into place. Until the rename lands, recovery still sees the
// previous generation.
func WriteManifest(fs FS, m *Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	if err := writeFileSync(fs, manifestTmp, buf); err != nil {
		return err
	}
	return fs.Rename(manifestTmp, ManifestName(m.Generation))
}

// LoadManifest reads and validates the manifest file with name.
func LoadManifest(fs FS, name string) (*Manifest, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("durable: manifest %s: truncated", name)
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if uint64(8+n) != uint64(len(data)) {
		return nil, fmt.Errorf("durable: manifest %s: length mismatch", name)
	}
	payload := data[8:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("durable: manifest %s: checksum mismatch", name)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("durable: manifest %s: %w", name, err)
	}
	return &m, nil
}

// WriteCleanMarker records a clean shutdown at generation gen.
func WriteCleanMarker(fs FS, gen uint64) error {
	return writeFileSync(fs, cleanMarker, []byte(fmt.Sprintf("generation %d\n", gen)))
}

// readCleanMarker returns the marker's generation, or ok=false when the
// marker is absent or unparsable.
func readCleanMarker(fs FS) (gen uint64, ok bool) {
	data, err := fs.ReadFile(cleanMarker)
	if err != nil {
		return 0, false
	}
	if _, err := fmt.Sscanf(string(data), "generation %d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}
