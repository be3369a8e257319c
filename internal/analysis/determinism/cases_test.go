package determinism_test

import (
	"fmt"
	"path"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/determinism"
)

// fixture prefixes body with a package clause named after pkgpath's last
// element.
func fixture(pkgpath, body string) string {
	return "package " + strings.ReplaceAll(path.Base(pkgpath), "-", "") + "\n\n" + body
}

// allRules commits one sin of each kind; the want comments are appended
// per scope by TestDeterminismScopes.
const allRules = `import (
	"math/rand/v2"
	"time"
)

func sins(m map[int]int) (int, float64) {
	s := 0
	for _, v := range m { %s
		s += v
	}
	t := time.Now() %s
	_ = t
	return s, rand.Float64() %s
}
`

const (
	wantRange = `// want "range over map is nondeterministically ordered"`
	wantNow   = `// want "time.Now in a parity-critical package"`
	wantRand  = `// want "global math/rand source is unseeded"`
)

// TestDeterminismScopes pins the rule set each package gets: every parity
// package gets all three rules, every output package the map-iteration
// rule only, and anything else none. Scopes match whole path elements.
func TestDeterminismScopes(t *testing.T) {
	parity := []string{
		"internal/perfmon", "internal/simt", "internal/cachesim", "internal/workloads",
		"internal/loader", "internal/stats", "internal/gen", "internal/bayes",
	}
	output := []string{
		"internal/harness", "cmd/graphbig", "cmd/graphbig-bench",
		"cmd/graphbig-gen", "cmd/graphbig-g500",
	}
	outside := []string{
		"internal/engine", "internal/property", "cmd/graphbig-vet",
		"internal/perfmonx", "x/internal/gen/sub",
	}
	for _, p := range parity {
		t.Run("parity/"+p, func(t *testing.T) {
			analysis.RunSource(t, determinism.Analyzer, p,
				fixture(p, fmt.Sprintf(allRules, wantRange, wantNow, wantRand)))
		})
	}
	for _, p := range output {
		t.Run("output/"+p, func(t *testing.T) {
			analysis.RunSource(t, determinism.Analyzer, p,
				fixture(p, fmt.Sprintf(allRules, wantRange, "", "")))
		})
	}
	for _, p := range outside {
		t.Run("outside/"+p, func(t *testing.T) {
			analysis.RunSource(t, determinism.Analyzer, p,
				fixture(p, fmt.Sprintf(allRules, "", "", "")))
		})
	}
	// A module-qualified import path matches its module-relative suffix.
	t.Run("module-path", func(t *testing.T) {
		p := "github.com/graphbig/graphbig-go/internal/perfmon"
		analysis.RunSource(t, determinism.Analyzer, p,
			fixture(p, fmt.Sprintf(allRules, wantRange, wantNow, wantRand)))
	})
}

// TestDeterminismCases runs one construct per case in the parity scope.
func TestDeterminismCases(t *testing.T) {
	cases := []struct{ name, body string }{
		{"range-map-key-value", `
func f(m map[string]int) (n int) {
	for k, v := range m { // want "range over map"
		n += len(k) + v
	}
	return n
}`},
		{"range-map-key-only-sum", `
func f(m map[string]int) (n int) {
	for k := range m { // want "range over map"
		n += len(k)
	}
	return n
}`},
		{"range-map-blank", `
func f(m map[string]int) (n int) {
	for range m { // want "range over map"
		n++
	}
	return n
}`},
		{"range-named-map-type", `
type degrees map[int32]int

func f(d degrees) (n int) {
	for _, v := range d { // want "range over map"
		n += v
	}
	return n
}`},
		{"range-map-from-call", `
func table() map[int]bool { return nil }

func f() (n int) {
	for k := range table() { // want "range over map"
		n += k
	}
	return n
}`},
		{"range-map-field", `
type s struct{ m map[int]int }

func f(x s) (n int) {
	for _, v := range x.m { // want "range over map"
		n += v
	}
	return n
}`},
		{"range-map-in-closure", `
func f(m map[int]int) func() int {
	return func() (n int) {
		for _, v := range m { // want "range over map"
			n += v
		}
		return n
	}
}`},
		{"key-collection-exempt", `
func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}`},
		{"key-collection-paren-append-exempt", `
func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = (append)(keys, k)
	}
	return keys
}`},
		{"key-collection-with-value-binding", `
func f(m map[string]int) []string {
	var keys []string
	for k, _ := range m { // want "range over map"
		keys = append(keys, k)
	}
	return keys
}`},
		{"key-collection-derived-element", `
func f(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map"
		keys = append(keys, k+"!")
	}
	return keys
}`},
		{"key-collection-extra-statement", `
func f(m map[string]int) ([]string, int) {
	var keys []string
	n := 0
	for k := range m { // want "range over map"
		keys = append(keys, k)
		n++
	}
	return keys, n
}`},
		{"key-collection-two-elements", `
func f(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map"
		keys = append(keys, k, k)
	}
	return keys
}`},
		{"range-slice-silent", `
func f(xs []int) (n int) {
	for _, v := range xs {
		n += v
	}
	return n
}`},
		{"range-string-channel-int-silent", `
func f(s string, c chan int) (n int) {
	for _, r := range s {
		n += int(r)
	}
	for v := range c {
		n += v
	}
	for i := range 4 {
		n += i
	}
	return n
}`},
		{"time-now-dot-import", `
import . "time"

func f() int64 {
	return Now().UnixNano() // want "time.Now in a parity-critical package"
}`},
		{"time-other-functions-silent", `
import "time"

func f(d time.Duration) time.Time {
	return time.Unix(0, int64(d)).Add(time.Second)
}`},
		{"time-method-now-silent", `
type clock struct{}

func (clock) Now() int { return 0 }

func f(c clock) int { return c.Now() }`},
		{"rand-v1-intn", `
import "math/rand"

func f() int {
	return rand.Intn(10) // want "global math/rand source"
}`},
		{"rand-v1-shuffle-perm", `
import "math/rand"

func f(xs []int) []int {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand source"
	return rand.Perm(3) // want "global math/rand source"
}`},
		{"rand-v1-seeded-silent", `
import "math/rand"

func f(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}`},
		{"rand-v1-zipf-silent", `
import "math/rand"

func f(seed int64) uint64 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.5, 1, 100)
	return z.Uint64()
}`},
		{"rand-v2-intn", `
import "math/rand/v2"

func f() int {
	return rand.IntN(10) // want "global math/rand source"
}`},
		{"rand-v2-generic-inferred", `
import "math/rand/v2"

func f() int64 {
	return rand.N(int64(10)) // want "global math/rand source"
}`},
		{"rand-v2-generic-explicit", `
import "math/rand/v2"

func f() int64 {
	return rand.N[int64](10) // want "global math/rand source"
}`},
		{"rand-v2-chacha-silent", `
import "math/rand/v2"

func f(seed [32]byte) uint64 {
	return rand.New(rand.NewChaCha8(seed)).Uint64()
}`},
		{"rand-aliased-import", `
import mrand "math/rand/v2"

func f() float64 {
	return mrand.Float64() // want "global math/rand source"
}`},
		{"rand-method-value-silent", `
import "math/rand/v2"

func f(r *rand.Rand) func() float64 {
	return r.Float64
}`},
		{"time-since", `
import "time"

func f(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since in a parity-critical package"
}`},
		{"time-until", `
import "time"

func f(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until in a parity-critical package"
}`},
		{"range-maps-keys", `
import "maps"

func f(m map[int]int) (n int) {
	for k := range maps.Keys(m) { // want "range over maps.Keys is nondeterministically ordered"
		n = n*31 + k
	}
	return n
}`},
		{"range-maps-values", `
import "maps"

func f(m map[int]int) (n int) {
	for v := range maps.Values(m) { // want "range over maps.Values is nondeterministically ordered"
		n = n*31 + v
	}
	return n
}`},
		{"range-maps-all", `
import "maps"

func f(m map[int]int) (n int) {
	for k, v := range maps.All(m) { // want "range over maps.All is nondeterministically ordered"
		n = n*31 + k + v
	}
	return n
}`},
		{"range-maps-keys-collection-silent", `
import "maps"

func f(m map[int]int) (keys []int) {
	for k := range maps.Keys(m) {
		keys = append(keys, k)
	}
	return keys
}`},
		{"sorted-maps-keys-silent", `
import (
	"maps"
	"slices"
)

func f(m map[int]int) (n int) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		n = n*31 + k
	}
	return n
}`},
		{"parenthesized-callee", `
import "time"

func f() time.Time {
	return (time.Now)() // want "time.Now in a parity-critical package"
}`},
	}
	const pkg = "internal/perfmon"
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			analysis.RunSource(t, determinism.Analyzer, pkg, fixture(pkg, c.body))
		})
	}
}
