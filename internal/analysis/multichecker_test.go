package analysis

import (
	"reflect"
	"testing"
)

// TestSortFindings pins the determinism contract: findings order by
// (file, line, col, analyzer, message), so two runs over the same tree
// serialize byte-identically regardless of analyzer scheduling.
func TestSortFindings(t *testing.T) {
	finds := []Finding{
		{File: "b.go", Line: 1, Col: 1, Analyzer: "x", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "x", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "x", Message: "m"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "y", Message: "n"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "y", Message: "m"},
	}
	SortFindings(finds)
	want := []Finding{
		{File: "a.go", Line: 2, Col: 3, Analyzer: "y", Message: "m"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "y", Message: "n"},
		{File: "a.go", Line: 2, Col: 3, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "x", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "x", Message: "m"},
		{File: "b.go", Line: 1, Col: 1, Analyzer: "x", Message: "m"},
	}
	if !reflect.DeepEqual(finds, want) {
		t.Fatalf("SortFindings order:\n got %+v\nwant %+v", finds, want)
	}
}
