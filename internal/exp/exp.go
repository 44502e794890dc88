// Package exp is the experiment harness: it regenerates every table and
// figure of the paper (and the quantitative claims made in its prose) as
// plain-text tables, one experiment per paper artifact.
//
// Experiments are registered under stable identifiers E1..E20 and E23
// (see DESIGN.md for the mapping to tables/figures; E21 and E22 are
// recorded outside this registry, see EXPERIMENTS.md); the routelab CLI
// and the repository-level benchmarks both drive this registry, so the
// numbers in EXPERIMENTS.md are reproducible with a single command.
//
// All-pairs measurements flow through the worker-pool engine of
// internal/evaluate (configured via SetEvalOptions); results are
// structured Result values renderable as text, JSON or CSV (result.go).
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one structured experiment table: named columns plus rows of
// formatted cells. Render writes the plain-text form; the JSON and CSV
// renderers in result.go serialize the same data machine-readably.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"` // free-form commentary displayed under the title
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(w, "   %s\n", line)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Run produces one or more result tables. Implementations must be
	// deterministic: all randomness flows from fixed seeds.
	Run func() ([]*Table, error)
}

var registry = map[string]Experiment{}

// Register adds an experiment; duplicate ids panic (registration happens
// in package init, so this is a programming error).
func Register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment sorted by id (E1, E2, ...,
// numerically aware).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

func lessID(a, b string) bool {
	var na, nb int
	fmt.Sscanf(a, "E%d", &na)
	fmt.Sscanf(b, "E%d", &nb)
	if na != nb {
		return na < nb
	}
	return a < b
}

// RunAll executes every experiment in order, rendering to w; the first
// error aborts.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		tables, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Render(w)
		}
	}
	return nil
}
