package kset

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result: the reproduction analogue of a
// paper table. Every experiment runner returns one.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying every cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
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
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// Experiments returns the full suite E1-E15 with default parameters, in
// order. cmd/experiments prints them all; the root benchmarks time them.
// Sweep-shaped experiments (E1, E5, E12) evaluate their independent cells on
// a worker pool sized by SweepWorkers while emitting rows in deterministic
// sequential order. The search-driven experiments run with default search
// options; ExperimentsWith threads an explicit Searcher instead.
func Experiments() []Experiment {
	return ExperimentsWith(nil)
}

// ExperimentsWith is Experiments with an explicit search configuration for
// the search-driven experiments (E1, E5, E6, E13, E14, E15); nil means
// default options. Experiments that run no condition-(C) search are
// unaffected by the Searcher.
func ExperimentsWith(s *Searcher) []Experiment {
	return []Experiment{
		{"E1", "Theorem 2: impossibility border k <= (n-1)/(n-f)", func() (*Table, error) {
			p := DefaultE1Params()
			p.Search = s
			return ExperimentTheorem2Border(p)
		}},
		{"E2", "Theorem 8: possibility region kn > (k+1)f (initial crashes)", func() (*Table, error) { return ExperimentInitialCrashPossibility(DefaultE2Params()) }},
		{"E3", "Theorem 8: border impossibility kn = (k+1)f", func() (*Table, error) { return ExperimentBorderImpossibility() }},
		{"E4", "Lemmas 6/7: source components of min-in-degree digraphs", func() (*Table, error) { return ExperimentSourceComponents(DefaultE4Params()) }},
		{"E5", "Theorem 10 / Corollary 13: the (Sigma_k, Omega_k) border", func() (*Table, error) {
			p := DefaultE5Params()
			p.Search = s
			return ExperimentFailureDetectorBorder(p)
		}},
		{"E6", "Condition (C): bivalence in restricted subsystems", func() (*Table, error) { return ExperimentBivalenceWith(s) }},
		{"E7", "Lemma 9: partition histories satisfy (Sigma_k, Omega_k)", func() (*Table, error) { return ExperimentPartitionHistoryValidity() }},
		{"E8", "Section IV: T-independence of the protocols", func() (*Table, error) { return ExperimentTIndependence() }},
		{"E9", "Section III remark: Theorem 1 as a vetting tool", func() (*Table, error) { return ExperimentCandidateVetting() }},
		{"E10", "Ablation: deterministic kernel vs goroutine runtime", func() (*Table, error) { return ExperimentRuntimeAblation() }},
		{"E11", "Discussion outlook: partitioning in the Heard-Of round model", func() (*Table, error) { return ExperimentRoundModel() }},
		{"E12", "Synchrony ladder: protocols across the Section II model dimensions", func() (*Table, error) { return ExperimentSynchronyLadder() }},
		{"E13", "Memory-bounded exploration: uniform Theorem 2 beyond the default budget", func() (*Table, error) {
			p := DefaultE13Params()
			p.Search = s
			return ExperimentBoundedExploration(p)
		}},
		{"E14", "Fault models: omission and value faults across the search substrate", func() (*Table, error) {
			p := DefaultE14Params()
			p.Search = s
			return ExperimentFaultModels(p)
		}},
		{"E15", "Sharded exploration: bit-identical verdicts at every shard count", func() (*Table, error) {
			p := DefaultE15Params()
			p.Search = s
			return ExperimentShardedExploration(p)
		}},
	}
}
