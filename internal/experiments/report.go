// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment is a function from a Config to a
// Report — a titled text table plus notes — and the registry maps the
// paper's table/figure identifiers to those functions so the geobench
// command and the benchmark suite can drive them uniformly.
//
// The DESIGN.md experiment index maps each identifier to the paper
// artifact it reproduces and the modules involved; EXPERIMENTS.md records
// paper-reported versus measured values.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report is the output of one experiment: a table with a caption.
type Report struct {
	// ID is the registry identifier, e.g. "table1" or "fig5".
	ID string
	// Title describes what the paper artifact shows.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold the table body.
	Rows [][]string
	// Notes carry free-form observations (e.g. comparisons to the paper's
	// reported shape).
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a formatted note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", max(0, pad)))
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", max(0, total-2)))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as comma-separated values (header + rows). Cells
// containing commas or quotes are quoted.
func (r *Report) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// JSON renders the report as an indented JSON document with the same
// fields the text table carries, for machine-readable baselines such as
// results/BENCH_orders.json.
func (r *Report) JSON() (string, error) {
	v := struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{r.ID, r.Title, r.Header, r.Rows, r.Notes}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
