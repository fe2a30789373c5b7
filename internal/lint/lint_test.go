package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expected-diagnostic markers of the fixture
// packages: a `// want "substr"` comment on a line means the checks
// must report a diagnostic there whose message contains the substring.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// readWants parses the markers of every Go file in dir, keyed by
// base-filename:line.
func readWants(t *testing.T, dir string) map[string]string {
	t.Helper()
	wants := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = m[1]
			}
		}
	}
	return wants
}

// TestFixtures loads each intentionally-bad fixture package and checks
// the diagnostics line-for-line against its want markers: every marker
// must be hit, and no diagnostic may appear on an unmarked line.
func TestFixtures(t *testing.T) {
	for _, name := range []string{"noalloc", "latch", "pool", "clean"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			mod, err := Load(".", "./"+dir)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			diags := mod.Run()
			wants := readWants(t, dir)
			if name == "clean" {
				if len(wants) != 0 {
					t.Fatalf("clean fixture must not carry want markers")
				}
				for _, d := range diags {
					t.Errorf("unexpected diagnostic on clean fixture: %s", d)
				}
				return
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want markers", name)
			}
			hit := make(map[string]bool)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
				want, ok := wants[key]
				if !ok {
					t.Errorf("unexpected diagnostic at %s: %s", key, d)
					continue
				}
				if !strings.Contains(d.Message, want) {
					t.Errorf("diagnostic at %s = %q, want substring %q", key, d.Message, want)
					continue
				}
				hit[key] = true
			}
			for key, want := range wants {
				if !hit[key] {
					t.Errorf("missing diagnostic at %s (want %q)", key, want)
				}
			}
		})
	}
}

// TestChecksRegistered pins the check registry the CLI's -list and
// -check flags are built on.
func TestChecksRegistered(t *testing.T) {
	got := Checks()
	if len(got) != 3 {
		t.Fatalf("Checks() returned %d entries, want 3", len(got))
	}
	for i, name := range []string{"noalloc", "latch", "pool"} {
		if got[i].Name != name {
			t.Errorf("Checks()[%d].Name = %q, want %q", i, got[i].Name, name)
		}
		if got[i].Desc == "" {
			t.Errorf("check %s has no description", name)
		}
	}
}

// TestRunSubset verifies check selection: running only the latch check
// over the pool fixture must report nothing.
func TestRunSubset(t *testing.T) {
	mod, err := Load(".", "./testdata/pool")
	if err != nil {
		t.Fatal(err)
	}
	if diags := mod.Run("latch"); len(diags) != 0 {
		t.Errorf("latch check on the pool fixture reported %d diagnostics: %v", len(diags), diags)
	}
	if diags := mod.Run("pool"); len(diags) == 0 {
		t.Error("pool check on the pool fixture reported nothing")
	}
}

// TestRepoClean is the contract the CI step enforces: the shipped tree
// itself must pass every check. A failure here means a hot-path
// invariant regressed (or the checks got stricter than the code).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := mod.Run()
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(mod.Requested) < 10 {
		t.Errorf("loaded only %d packages; the module walk looks broken", len(mod.Requested))
	}
}

// TestAnnotatedHotPaths pins the sweep: the previously runtime-gated
// entry points must carry a verified //holistic:noalloc annotation, so
// removing one is a visible, reviewed act.
func TestAnnotatedHotPaths(t *testing.T) {
	mod, err := Load("../..", "./internal/query", "./internal/groupby", "./internal/join", "./internal/column", "./internal/cracking", "./internal/obs", "./internal/obs/flight", "./internal/obs/observer")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := map[string][]string{
		"holistic/internal/query":    {"Count", "Sum", "runSel", "putScratch", "finish", "noteStrategy"},
		"holistic/internal/groupby":  {"GroupRows", "GroupBitmap", "GroupClusters", "feedSpan", "nextChunk", "cluster", "fold", "packKeys", "keyCol", "aggCol", "merge", "mergeGroup", "emit"},
		"holistic/internal/join":     {"Merge", "PutPairs"},
		"holistic/internal/column":   {"CountRange", "sumRange", "FilterBitmap", "SumBitmap"},
		"holistic/internal/cracking": {"crackInTwo", "less", "swapRuns", "split"},
		"holistic/internal/obs":      {"Inc", "Add", "Record", "RecordNanos", "NextSeq", "RecordOp", "RecordRep", "RecordStrategy"},
		"holistic/internal/obs/flight": {
			"record", "RecordQuery", "RecordRep", "RecordStrategy", "RecordRefine",
			"RecordCycle", "RecordCheckpoint", "RecordRecovery", "RecordAnomaly",
		},
		"holistic/internal/obs/observer": {
			"Begin", "End", "Rep", "Strategy", "Select", "CrackerBuilt", "Cycle", "Checkpoint",
		},
	}
	annotated := make(map[string]map[string]bool)
	for _, pkg := range mod.Requested {
		set := make(map[string]bool)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				var fi funcInfo
				if parseAnnotations(fd, &fi) == "" && fi.noalloc {
					set[fd.Name.Name] = true
				}
			}
		}
		annotated[pkg.Path] = set
	}
	for path, names := range want {
		for _, name := range names {
			if !annotated[path][name] {
				t.Errorf("%s.%s is not annotated //holistic:noalloc", path, name)
			}
		}
	}
}
