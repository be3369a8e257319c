package hotloop_test

import (
	"fmt"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/hotloop"
)

// probe is a per-edge map probe at loop depth 2; the second verb takes
// the want comment where the package is in scope.
const probe = `package %s

func f(rows [][]int32, deg map[int32]int) (s int) {
	for _, row := range rows {
		for _, w := range row {
			s += deg[w] %s
		}
	}
	return s
}
`

const wantProbe = `// want "map indexing in a nested hot loop"`

// TestHotLoopScopes pins the analyzer to the engine and workload kernels.
func TestHotLoopScopes(t *testing.T) {
	for _, c := range []struct {
		pkgpath, name, want string
	}{
		{"internal/engine", "engine", wantProbe},
		{"internal/workloads", "workloads", wantProbe},
		{"github.com/graphbig/graphbig-go/internal/workloads", "workloads", wantProbe},
		{"internal/property", "property", ""},
		{"internal/perfmon", "perfmon", ""},
		{"internal/enginex", "enginex", ""},
		{"cmd/graphbig", "main", ""},
	} {
		t.Run(c.pkgpath, func(t *testing.T) {
			analysis.RunSource(t, hotloop.Analyzer, c.pkgpath, fmt.Sprintf(probe, c.name, c.want))
		})
	}
}

// TestHotLoopCases runs one construct per case inside internal/engine.
func TestHotLoopCases(t *testing.T) {
	cases := []struct{ name, body string }{
		{"map-index-depth1-silent", `
func f(xs []int32, deg map[int32]int) (s int) {
	for _, x := range xs {
		s += deg[x]
	}
	return s
}`},
		{"map-index-depth3", `
func f(a [][][]int32, deg map[int32]int) (s int) {
	for _, b := range a {
		for _, c := range b {
			for _, w := range c {
				s += deg[w] // want "map indexing in a nested hot loop"
			}
		}
	}
	return s
}`},
		{"package-var-func-literal", `
var f = func(rows [][]int32, deg map[int32]int) (s int) {
	for _, row := range rows {
		s += deg[row[0]]
		for _, w := range row {
			s += deg[w] // want "map indexing in a nested hot loop"
		}
	}
	return s
}`},
		{"map-index-three-clause-loops", `
func f(n int, deg map[int]int) (s int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s += deg[i*n+j] // want "map indexing in a nested hot loop"
		}
	}
	return s
}`},
		{"map-assign-in-nest", `
func f(rows [][]int32, seen map[int32]bool) {
	for _, row := range rows {
		for _, w := range row {
			seen[w] = true // want "map indexing in a nested hot loop"
		}
	}
}`},
		{"slice-index-silent", `
func f(rows [][]int32, deg []int) (s int) {
	for _, row := range rows {
		for _, w := range row {
			s += deg[w]
		}
	}
	return s
}`},
		{"map-range-depth0-silent", `
func f(m map[int32]int) (s int) {
	for _, v := range m {
		s += v
	}
	return s
}`},
		{"map-range-operand-of-inner-loop", `
func f(rows [][]int32, m map[int32]int) (s int) {
	for range rows {
		for _, v := range m { // want "map iteration in a nested hot loop"
			s += v
		}
	}
	return s
}`},
		{"map-range-over-hoisted-operand-silent", `
func f(rows [][]int32, ms []map[int32]int) (s int) {
	for i := range rows {
		m := ms[i]
		s += len(m)
	}
	return s
}`},
		{"for-cond-at-body-depth", `
func f(rows [][]int32, lim map[int]int) (s int) {
	for i := range rows {
		for j := 0; j < lim[i]; j++ { // want "map indexing in a nested hot loop"
			s += j
		}
	}
	return s
}`},
		{"for-post-at-body-depth", `
func f(rows [][]int32, step map[int]int) (s int) {
	for i := range rows {
		for j := 0; j < 8; j += step[i] { // want "map indexing in a nested hot loop"
			s += j
		}
	}
	return s
}`},
		{"for-init-at-enclosing-depth-silent", `
func f(rows [][]int32, start map[int]int) (s int) {
	for i := range rows {
		for j := start[i]; j < 8; j++ {
			s += j
		}
	}
	return s
}`},
		{"range-operand-at-enclosing-depth-silent", `
func f(rows []int32, adj map[int32][]int32) (s int) {
	for _, v := range rows {
		for _, w := range adj[v] {
			s += int(w)
		}
	}
	return s
}`},
		{"make-in-nest", `
func f(rows [][]int32) (out [][]int) {
	for _, row := range rows {
		for range row {
			out = append(out, make([]int, 1)) // want "allocation in a nested hot loop"
		}
	}
	return out
}`},
		{"new-in-nest", `
func f(rows [][]int32) (out []*int) {
	for _, row := range rows {
		for range row {
			out = append(out, new(int)) // want "allocation in a nested hot loop"
		}
	}
	return out
}`},
		{"make-depth1-silent", `
func f(rows [][]int32) (out [][]int) {
	for _, row := range rows {
		out = append(out, make([]int, len(row)))
	}
	return out
}`},
		{"shadowed-make-silent", `
func f(rows [][]int32) (s int) {
	make := func(n int) int { return n }
	for _, row := range rows {
		for range row {
			s += make(1)
		}
	}
	return s
}`},
		{"address-of-composite", `
type edge struct{ u, v int32 }

func f(rows [][]int32) (out []*edge) {
	for u, row := range rows {
		for _, v := range row {
			out = append(out, &edge{int32(u), v}) // want "&composite literal in a nested hot loop"
		}
	}
	return out
}`},
		{"value-composite-silent", `
type edge struct{ u, v int32 }

func f(rows [][]int32) (out []edge) {
	for u, row := range rows {
		for _, v := range row {
			out = append(out, edge{int32(u), v})
		}
	}
	return out
}`},
		{"address-of-variable-silent", `
func f(rows [][]int32) (s int) {
	for _, row := range rows {
		for i := range row {
			p := &row[i]
			s += int(*p)
		}
	}
	return s
}`},
		{"type-assertion-in-nest", `
func f(rows [][]any) (s int) {
	for _, row := range rows {
		for _, v := range row {
			s += v.(int) // want "type assertion in a nested hot loop"
		}
	}
	return s
}`},
		{"type-switch-silent", `
func f(rows [][]any) (s int) {
	for _, row := range rows {
		for _, v := range row {
			switch x := v.(type) {
			case int:
				s += x
			}
		}
	}
	return s
}`},
		{"conversion-to-named-interface", `
type stringer interface{ String() string }

type id int32

func (id) String() string { return "" }

func f(rows [][]id, sink func(stringer)) {
	for _, row := range rows {
		for _, v := range row {
			sink(stringer(v)) // want "conversion to an interface in a nested hot loop"
		}
	}
}`},
		{"interface-to-interface-silent", `
func f(rows [][]error, sink func(any)) {
	for _, row := range rows {
		for _, e := range row {
			sink(any(e))
		}
	}
}`},
		{"concrete-conversion-silent", `
func f(rows [][]int32) (s int64) {
	for _, row := range rows {
		for _, w := range row {
			s += int64(w)
		}
	}
	return s
}`},
		{"closure-in-loop-inherits-depth", `
func f(items []int32, m map[int32]int, each func(func())) (s int) {
	for _, it := range items {
		each(func() {
			for range items {
				s += m[it] // want "map indexing in a nested hot loop"
			}
		})
	}
	return s
}`},
		{"closure-outside-loop-silent", `
func f(items []int32, m map[int32]int) func() int {
	return func() (s int) {
		for _, it := range items {
			s += m[it]
		}
		return s
	}
}`},
		{"method-body-checked", `
type g struct{ adj [][]int32; deg map[int32]int }

func (x *g) f() (s int) {
	for _, row := range x.adj {
		for _, w := range row {
			s += x.deg[w] // want "map indexing in a nested hot loop"
		}
	}
	return s
}`},
		{"several-hazards-one-line", `
func f(rows [][]int32, m map[int32]any) (s int) {
	for _, row := range rows {
		for _, w := range row {
			s += m[w].(int) // want "type assertion in a nested hot loop" "map indexing in a nested hot loop"
		}
	}
	return s
}`},
	}
	const pkg = "internal/engine"
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			analysis.RunSource(t, hotloop.Analyzer, pkg, "package engine\n"+c.body)
		})
	}
}
