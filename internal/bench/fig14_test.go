package bench

import (
	"strings"
	"testing"
)

// TestFig14ShapeFromRows: the note is computed from fig14's rows. Q1
// below keeps the paper's shape; Q6 breaks each of its three conditions
// in turn (a cracking first query no slower than presorted's, then a
// holistic one, then a holistic total above cracking's), and Q12 lacks
// its cracking row.
func TestFig14ShapeFromRows(t *testing.T) {
	row := func(q, mode, first, total string) []string {
		return []string{q, mode, first, "0.0", total, "0.0"}
	}
	base := [][]string{
		row("Q1", "MonetDB", "30.0", "900.0"),
		row("Q1", "Presorted MonetDB", "1.0", "600.0"),
		row("Q1", "Cracking (row ids)", "2.1", "700.0"),
		row("Q1", "Holistic Indexing", "3.0", "650.0"),
	}
	note := fig14Shape(base)
	if !strings.Contains(note, "Q1 first cracking 2.1, holistic 3.0 vs presorted 1.0 ms; total holistic 650.0 vs cracking 700.0 ms: holds") {
		t.Fatalf("shape note = %q", note)
	}
	for i, broken := range [][]string{
		{"1.0", "3.0", "650.0"}, // cracking's first query no slower than presorted's
		{"2.1", "0.9", "650.0"}, // holistic's first query faster than presorted's
		{"2.1", "3.0", "700.1"}, // holistic's total above cracking's
	} {
		rows := [][]string{
			row("Q6", "Presorted MonetDB", "1.0", "600.0"),
			row("Q6", "Cracking (row ids)", broken[0], "700.0"),
			row("Q6", "Holistic Indexing", broken[1], broken[2]),
		}
		if note := fig14Shape(append(base, rows...)); !strings.Contains(note, "Q1 ") || !strings.HasSuffix(note, "does not hold") || strings.Count(note, "holds") != 1 {
			t.Fatalf("case %d: shape note = %q", i, note)
		}
	}
	missing := [][]string{row("Q12", "Presorted MonetDB", "1.0", "600.0"), row("Q12", "Holistic Indexing", "3.0", "650.0")}
	if note := fig14Shape(missing); !strings.HasSuffix(note, "does not hold") {
		t.Fatalf("shape note without a cracking row = %q", note)
	}
}
