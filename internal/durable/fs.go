// Package durable is the persistence core of the store: checksummed
// columnar snapshots, a write-ahead log for the update path, and the
// recovery procedure that reassembles both the data and the adaptive
// state (cracker piece boundaries, sorted runs, daemon statistics) a
// restarted store needs to answer its first query at converged speed.
//
// Everything goes through the FS interface so the crash-injection
// harness (FaultFS) can cut power at any mutating filesystem operation
// and the recovery tests can replay the exact torn state a real crash
// would leave behind.
package durable

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is the subset of *os.File the durable layer writes through.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the flat directory a store persists into. Names never
// contain path separators; the store owns the whole directory.
type FS interface {
	// Create opens name for writing, truncating any previous content.
	Create(name string) (File, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// Open opens name for sequential reading and returns its size: the
	// snapshot files, which can be as large as the data, are decoded from
	// the stream instead of from a buffer holding all of them.
	Open(name string) (io.ReadCloser, int64, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name. Removing a missing file is an error.
	Remove(name string) error
	// List returns the names in the directory, sorted.
	List() ([]string, error)
}

// OSFS is the production FS: a real directory on the local filesystem.
type OSFS struct {
	dir string
}

// NewOSFS creates the directory (if needed) and returns an FS rooted at
// it.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OSFS{dir: dir}, nil
}

// Dir returns the root directory.
func (fs *OSFS) Dir() string { return fs.dir }

func (fs *OSFS) path(name string) string { return filepath.Join(fs.dir, name) }

// Create implements FS.
func (fs *OSFS) Create(name string) (File, error) {
	return os.Create(fs.path(name))
}

// ReadFile implements FS.
func (fs *OSFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(fs.path(name))
}

// Open implements FS.
func (fs *OSFS) Open(name string) (io.ReadCloser, int64, error) {
	f, err := os.Open(fs.path(name))
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// Rename implements FS. The directory is fsynced afterwards so the
// rename itself is durable — the manifest swap relies on this.
func (fs *OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(fs.path(oldname), fs.path(newname)); err != nil {
		return err
	}
	return fs.syncDir()
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error {
	return os.Remove(fs.path(name))
}

// List implements FS.
func (fs *OSFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// syncDir makes directory metadata (creates, renames, removes) durable.
func (fs *OSFS) syncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
