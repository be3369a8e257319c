package overflowconv_test

import (
	"fmt"
	"path"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/overflowconv"
)

// narrowing is an unchecked int -> int32 conversion; the second verb takes
// the want comment where the package is in scope.
const narrowing = `package %s

func f(n int) int32 {
	return int32(n) %s
}
`

// TestOverflowConvScopes pins the rule to the packages that hold vertex
// IDs and offsets; the checked helpers in internal/narrow stay exempt.
func TestOverflowConvScopes(t *testing.T) {
	const want = `// want "narrowing conversion int32\\(n\\) from int"`
	for _, c := range []struct{ pkgpath, want string }{
		{"internal/property", want},
		{"internal/loader", want},
		{"internal/csr", want},
		{"internal/engine", want},
		{"internal/concurrent", want},
		{"internal/mem", want},
		{"internal/workloads", want},
		{"github.com/graphbig/graphbig-go/internal/csr", want},
		{"internal/narrow", ""},
		{"internal/perfmon", ""},
		{"internal/gen", ""},
		{"internal/csrx", ""},
		{"cmd/graphbig", ""},
	} {
		t.Run(c.pkgpath, func(t *testing.T) {
			name := strings.ReplaceAll(path.Base(c.pkgpath), "-", "")
			analysis.RunSource(t, overflowconv.Analyzer, c.pkgpath, fmt.Sprintf(narrowing, name, c.want))
		})
	}
}

// TestOverflowConvCases runs one conversion per case inside
// internal/property.
func TestOverflowConvCases(t *testing.T) {
	cases := []struct{ name, body string }{
		{"int-to-int16", `
func f(n int) int16 {
	return int16(n) // want "narrowing conversion int16\\(n\\) from int"
}`},
		{"int-to-int8", `
func f(n int) int8 {
	return int8(n) // want "narrowing conversion int8\\(n\\) from int"
}`},
		{"int-to-byte", `
func f(n int) byte {
	return byte(n) // want "narrowing conversion byte\\(n\\) from int"
}`},
		{"int-to-uint32", `
func f(n int) uint32 {
	return uint32(n) // want "narrowing conversion uint32\\(n\\) from int"
}`},
		{"int64-to-int32", `
func f(n int64) int32 {
	return int32(n) // want "narrowing conversion int32\\(n\\) from int64"
}`},
		{"uint64-to-uint16", `
func f(n uint64) uint16 {
	return uint16(n) // want "narrowing conversion uint16\\(n\\) from uint64"
}`},
		{"int32-to-uint16", `
func f(n int32) uint16 {
	return uint16(n) // want "narrowing conversion uint16\\(n\\) from int32"
}`},
		{"uint32-to-uint8", `
func f(n uint32) uint8 {
	return uint8(n) // want "narrowing conversion uint8\\(n\\) from uint32"
}`},
		{"uintptr-to-uint32", `
func f(p uintptr) uint32 {
	return uint32(p) // want "narrowing conversion uint32\\(p\\) from uintptr"
}`},
		{"rune-to-byte", `
func f(r rune) byte {
	return byte(r) // want "narrowing conversion byte\\(r\\) from rune"
}`},
		{"named-destination", `
type VertexID int32

func f(n int) VertexID {
	return VertexID(n) // want "narrowing conversion VertexID\\(n\\) from int"
}`},
		{"named-source", `
type Offset int64

func f(o Offset) int32 {
	return int32(o) // want "narrowing conversion int32\\(o\\) from Offset"
}`},
		{"expression-argument-printed", `
func f(xs []int32) int32 {
	return int32(len(xs) - 1) // want "narrowing conversion int32\\(len\\(xs\\) - 1\\) from int"
}`},
		{"nested-conversions", `
func f(n int) int16 {
	return int16(int32(n)) // want "narrowing conversion int16\\(int32\\(n\\)\\) from int32" "narrowing conversion int32\\(n\\) from int"
}`},
		{"in-closure", `
func f(xs []int) func(int) int32 {
	return func(i int) int32 {
		return int32(xs[i]) // want "narrowing conversion int32\\(xs\\[i\\]\\) from int"
	}
}`},
		{"in-composite-literal", `
type rec struct{ id, deg int32 }

func f(id, deg int) rec {
	return rec{int32(id), int32(deg)} // want "int32\\(id\\) from int" "int32\\(deg\\) from int"
}`},
		{"widening-silent", `
func f(a int8, b int32, c uint32, d uint16) (int, int64, uint64, int) {
	return int(a), int64(b), uint64(c), int(d)
}`},
		{"same-width-silent", `
func f(a int64, b int, c uint32, d uint8) (uint64, int64, int32, int8) {
	return uint64(a), int64(b), int32(c), int8(d)
}`},
		{"constant-silent", `
const big = 1 << 20

func f() (int32, int8, uint16) {
	return int32(big), int8(-1), uint16(7)
}`},
		{"float-and-string-silent", `
func f(x float64, b []byte) (float32, string) {
	return float32(x), string(b)
}`},
		{"conversion-to-interface-silent", `
func f(n int) any {
	return any(n)
}`},
	}
	const pkg = "internal/property"
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			analysis.RunSource(t, overflowconv.Analyzer, pkg, "package property\n"+c.body)
		})
	}
}
