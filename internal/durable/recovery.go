package durable

import (
	"fmt"
	"strings"
)

// Recovered is everything Recover reassembled from the directory: the
// chosen snapshot generation, the logical column data, the surviving
// adaptive-state sections, and the WAL tail to replay on top.
type Recovered struct {
	Gen      uint64
	Manifest *Manifest    // nil on a fresh directory
	Columns  []ColumnData // snapshot order
	Indexes  []IndexState // surviving adaptive state
	Records  []Record     // WAL tail, in append order

	TornTail       bool // replay stopped at a torn frame
	Fallbacks      int  // manifest generations skipped as invalid
	StateDropped   bool // whole adaptive-state file was unusable
	DroppedIndexes int  // individual state sections dropped
	Clean          bool // clean-shutdown marker matched; nothing replayed

	NextPart       int    // part number for the generation's next WAL segment
	SeqAfterReplay uint64 // WAL seq after applying Records
}

// Recover validates and loads the newest usable snapshot generation,
// falling back to the previous one when the newest is torn, and parses
// the WAL tail. The clean-shutdown marker is consumed (deleted) so a
// later crash is visibly unclean. A directory with no valid manifest
// and no prior generations is a fresh store; a directory whose every
// manifest is corrupt is an error — the data cannot be reconstructed.
func Recover(fs FS) (*Recovered, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	markerGen, markerOK := readCleanMarker(fs)
	if markerOK {
		if err := fs.Remove(cleanMarker); err != nil {
			return nil, err
		}
	}

	rec := &Recovered{}
	chunk := make([]byte, chunkSize) // every snapshot file is decoded through it
	gens := manifestGens(names)
	for _, gen := range gens {
		m, cols, ok := loadGeneration(fs, gen, chunk)
		if !ok {
			rec.Fallbacks++
			continue
		}
		rec.Gen = gen
		rec.Manifest = m
		rec.Columns = cols
		break
	}
	if rec.Manifest == nil && len(gens) > 0 {
		return nil, fmt.Errorf("durable: no usable manifest among %d generations", len(gens))
	}

	if rec.Manifest != nil && rec.Manifest.StateFile != "" {
		states, dropped, err := loadState(fs, rec.Manifest.StateFile, chunk)
		rec.StateDropped = err != nil
		rec.Indexes = states
		rec.DroppedIndexes = dropped
	}

	for _, seg := range walSegmentsFrom(names, rec.Gen) {
		data, err := fs.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		recs, torn := ReadLog(data)
		rec.Records = append(rec.Records, recs...)
		if torn {
			// A torn frame is the unsynced tail of the crash; nothing
			// sequenced after it can exist in a later segment.
			rec.TornTail = true
			break
		}
	}

	rec.NextPart = maxWALPart(names, rec.Gen) + 1
	rec.SeqAfterReplay = rec.Gen + uint64(len(rec.Records))
	rec.Clean = markerOK && markerGen == rec.Gen &&
		len(rec.Records) == 0 && rec.Fallbacks == 0
	return rec, nil
}

// loadGeneration loads and validates one manifest generation with every
// column segment it references.
func loadGeneration(fs FS, gen uint64, chunk []byte) (*Manifest, []ColumnData, bool) {
	m, err := LoadManifest(fs, ManifestName(gen))
	if err != nil || m.Generation != gen {
		return nil, nil, false
	}
	cols := make([]ColumnData, 0, len(m.Columns))
	for _, mc := range m.Columns {
		c, err := loadSegment(fs, mc.File, chunk)
		if err != nil || c.Name != mc.Attr {
			return nil, nil, false
		}
		cols = append(cols, c)
	}
	return m, cols, true
}

// loadSegment decodes the segment file name from the stream.
func loadSegment(fs FS, name string, chunk []byte) (ColumnData, error) {
	f, size, err := fs.Open(name)
	if err != nil {
		return ColumnData{}, err
	}
	defer f.Close()
	return readSegment(newReader(f, size, chunk))
}

// loadState decodes the state file name from the stream.
func loadState(fs FS, name string, chunk []byte) ([]IndexState, int, error) {
	f, size, err := fs.Open(name)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return readState(newReader(f, size, chunk))
}

// maxUnsynced bounds the files WriteSnapshot holds open, written and not
// yet fsynced, so that a table of thousands of columns does not need
// thousands of descriptors.
const maxUnsynced = 64

// WriteSnapshot writes the column segments and adaptive-state file of
// generation m.Generation, then commits them by writing and renaming
// the manifest. On return the new generation is the one recovery picks;
// written is the size of its segments and state file.
//
// Every file is streamed from its source through one chunk — cols may
// share their arrays with the live table, indexes latch and hand over
// live index arrays — so no byte is copied on the way but into that
// chunk. The files are written in manifest order and fsynced only once
// the last is written (beyond maxUnsynced files, the oldest first): the
// kernel may write file i back while file i+1 is being encoded. No file
// is durable before its fsync returns and none is referenced before the
// manifest rename, which stays the one commit point; a crash anywhere
// earlier leaves files of a generation no manifest names. A column or index the format cannot frame fails the
// snapshot with ErrFrame, columns before any file is created.
func WriteSnapshot(fs FS, m *Manifest, cols []ColumnData, indexes []IndexSource) (written int64, err error) {
	for i := range cols {
		if err := cols[i].frameable(); err != nil {
			return 0, err
		}
	}
	var files []File
	defer func() {
		for _, f := range files {
			f.Close() // the error path: the success path closed them all
		}
	}()
	// syncOldest makes the longest-written file durable and closes it.
	syncOldest := func() error {
		f := files[0]
		files = files[1:]
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	w := newWriter(nil)
	create := func(name string) error {
		if len(files) == maxUnsynced {
			if err := syncOldest(); err != nil {
				return err
			}
		}
		f, err := fs.Create(name)
		if err != nil {
			return err
		}
		files = append(files, f)
		w.reset(f)
		return nil
	}
	m.Columns = m.Columns[:0]
	for i := range cols {
		name := SegmentName(m.Generation, cols[i].Name)
		if err := create(name); err != nil {
			return 0, err
		}
		writeSegment(w, &cols[i])
		if err := w.flush(); err != nil {
			return 0, err
		}
		m.Columns = append(m.Columns, ManifestColumn{Attr: cols[i].Name, File: name})
	}
	m.StateFile = ""
	if len(indexes) > 0 {
		m.StateFile = StateName(m.Generation)
		if err := create(m.StateFile); err != nil {
			return 0, err
		}
		if err := writeState(w, indexes); err != nil {
			return 0, err
		}
	}
	for len(files) > 0 {
		if err := syncOldest(); err != nil {
			return 0, err
		}
	}
	return w.total, WriteManifest(fs, m)
}

// Prune removes snapshot and WAL files of generations not in keep. It
// is best-effort: the first removal error is returned, but recovery is
// indifferent to leftovers — it always starts from the newest valid
// manifest.
func Prune(fs FS, keep map[uint64]bool) error {
	names, err := fs.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		gen, owned := fileGeneration(name)
		if !owned || keep[gen] {
			continue
		}
		if err := fs.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// PruneWAL removes every WAL segment of generation gen or newer. Safe
// only when those segments collectively hold zero acknowledged records
// — the reopen path uses it to retire a torn segment whose decodable
// prefix was empty, so a later recovery never stops its replay at that
// stale tear.
func PruneWAL(fs FS, gen uint64) error {
	names, err := fs.List()
	if err != nil {
		return err
	}
	for _, name := range walSegmentsFrom(names, gen) {
		if err := fs.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// fileGeneration parses the generation out of any durable file name; ok
// is false for files the durable layer does not own.
func fileGeneration(name string) (gen uint64, ok bool) {
	if g, _, ok := parseWALName(name); ok {
		return g, true
	}
	if g, ok := parseManifestName(name); ok {
		return g, true
	}
	if strings.HasPrefix(name, "state-") && strings.HasSuffix(name, ".bin") {
		body := strings.TrimSuffix(strings.TrimPrefix(name, "state-"), ".bin")
		if _, err := fmt.Sscanf(body, "%012d", &gen); err == nil {
			return gen, true
		}
	}
	if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".col") {
		body := strings.TrimPrefix(name, "seg-")
		if _, err := fmt.Sscanf(body, "%012d-", &gen); err == nil {
			return gen, true
		}
	}
	return 0, false
}
