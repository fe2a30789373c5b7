package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// ErrInjectedCrash is returned by every FaultFS operation once the
// configured kill point has fired: from the injected failure on, the
// process is considered dead and nothing else reaches the disk until
// Crash() simulates the reboot.
var ErrInjectedCrash = errors.New("durable: injected crash")

// FaultFS is an in-memory FS with a two-level view of every file: cur
// is what the running process observes (the page cache), dur is what
// survives a power cut. Writes land in cur only; Sync promotes a file's
// cur content to dur. Directory operations (Create, Rename, Remove) are
// modeled as immediately durable, which matches the production OSFS
// fsyncing the directory on rename.
//
// Every mutating operation increments an operation counter. Arming a
// kill point k makes the k-th mutating operation fail with
// ErrInjectedCrash — after applying the partial effect a real crash
// would leave:
//
//   - a clean kill on Write persists nothing of the new data;
//   - a torn kill on Write persists the file's durable prefix plus half
//     of the new data (a partially flushed page);
//   - a kill on Sync is a short fsync: half of the unsynced suffix
//     becomes durable, the rest is lost;
//   - a kill on Create/Rename/Remove loses the operation entirely.
//
// Crash() then simulates the reboot: the volatile view is reset to the
// durable view and the filesystem accepts operations again.
type FaultFS struct {
	mu  sync.Mutex
	cur map[string][]byte
	dur map[string][]byte

	ops    int // mutating operations performed
	killAt int // 1-based op index to fail at; 0 disables
	torn   bool
	down   bool
}

// NewFaultFS returns an empty in-memory filesystem with no kill point
// armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		cur: make(map[string][]byte),
		dur: make(map[string][]byte),
	}
}

// KillAt arms the kill point: the k-th mutating operation from now
// (1-based, counted across Write/Sync/Create/Rename/Remove) fails with
// ErrInjectedCrash. torn selects the partial-persistence flavor.
func (f *FaultFS) KillAt(k int, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.killAt = k
	f.torn = torn
}

// Ops returns the number of mutating operations performed since the
// last KillAt (or since creation). The crash matrix uses a first
// fault-free run to size its kill-point sweep.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Down reports whether the kill point has fired and the filesystem is
// refusing operations.
func (f *FaultFS) Down() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

// Crash simulates the power cut and reboot: every file reverts to its
// durable content, and the filesystem accepts operations again with the
// kill point disarmed.
func (f *FaultFS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cur = make(map[string][]byte, len(f.dur))
	for name, data := range f.dur {
		f.cur[name] = append([]byte(nil), data...)
	}
	f.down = false
	f.killAt = 0
}

// step counts one mutating operation and reports whether the kill point
// fires on it. Caller holds f.mu.
func (f *FaultFS) step() (killed bool) {
	f.ops++
	if f.killAt > 0 && f.ops >= f.killAt {
		f.down = true
		return true
	}
	return false
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, ErrInjectedCrash
	}
	if f.step() {
		return nil, ErrInjectedCrash
	}
	f.cur[name] = nil
	f.dur[name] = nil
	return &faultFile{fs: f, name: name}, nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, ErrInjectedCrash
	}
	data, ok := f.cur[name]
	if !ok {
		return nil, fmt.Errorf("durable: %s: %w", name, errNotExist)
	}
	return append([]byte(nil), data...), nil
}

var errNotExist = errors.New("file does not exist")

// Open implements FS over a copy of the file's current content.
func (f *FaultFS) Open(name string) (io.ReadCloser, int64, error) {
	data, err := f.ReadFile(name)
	if err != nil {
		return nil, 0, err
	}
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	if f.step() {
		return ErrInjectedCrash
	}
	data, ok := f.cur[oldname]
	if !ok {
		return fmt.Errorf("durable: rename %s: %w", oldname, errNotExist)
	}
	f.cur[newname] = data
	delete(f.cur, oldname)
	if ddata, ok := f.dur[oldname]; ok {
		f.dur[newname] = ddata
		delete(f.dur, oldname)
	} else {
		f.dur[newname] = append([]byte(nil), data...)
	}
	return nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	if f.step() {
		return ErrInjectedCrash
	}
	if _, ok := f.cur[name]; !ok {
		return fmt.Errorf("durable: remove %s: %w", name, errNotExist)
	}
	delete(f.cur, name)
	delete(f.dur, name)
	return nil
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, ErrInjectedCrash
	}
	names := make([]string, 0, len(f.cur))
	for name := range f.cur {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// faultFile is an open handle writing through the FaultFS.
type faultFile struct {
	fs   *FaultFS
	name string
}

// Write appends to the volatile view. A torn kill persists the durable
// prefix plus half of the new data — the partially flushed page a real
// power cut leaves behind.
func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return 0, ErrInjectedCrash
	}
	if f.step() {
		if f.torn && len(p) > 0 {
			half := append([]byte(nil), f.dur[ff.name]...)
			half = append(half, p[:(len(p)+1)/2]...)
			f.dur[ff.name] = half
		}
		return 0, ErrInjectedCrash
	}
	f.cur[ff.name] = append(f.cur[ff.name], p...)
	return len(p), nil
}

// Sync promotes the file's volatile content to durable. A kill here is
// a short fsync: half of the unsynced suffix survives.
func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	cur := f.cur[ff.name]
	if f.step() {
		durLen := len(f.dur[ff.name])
		if durLen < len(cur) {
			keep := durLen + (len(cur)-durLen)/2
			f.dur[ff.name] = append([]byte(nil), cur[:keep]...)
		}
		return ErrInjectedCrash
	}
	f.dur[ff.name] = append([]byte(nil), cur...)
	return nil
}

// Close implements File. Closing is not a mutating operation.
func (ff *faultFile) Close() error {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return ErrInjectedCrash
	}
	return nil
}
