package harness

import (
	"fmt"
	"strings"
)

// Report is the rendered outcome of one experiment.
type Report struct {
	ID      string // e.g. "fig05"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// String renders an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Headers)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as a GitHub table section.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(r.ID[:1])+r.ID[1:], r.Title)
	b.WriteString("| " + strings.Join(r.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Headers)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func fi(x int) string      { return fmt.Sprintf("%d", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pc1(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
