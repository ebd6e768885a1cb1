package kset

import (
	"context"
	"fmt"

	"kset/internal/algorithms"
	"kset/internal/core"
)

// E1Params parameterizes the Theorem 2 border sweep.
type E1Params struct {
	// MinN and MaxN bound the system sizes swept.
	MinN, MaxN int
	// MaxConfigs bounds each subsystem exploration.
	MaxConfigs int
	// Search configures the engine searches; nil means default options
	// (equivalent to NewSearcher(Options{})).
	Search *Searcher
}

// DefaultE1Params returns the sweep used by cmd/experiments and the E1
// benchmark.
func DefaultE1Params() E1Params {
	return E1Params{MinN: 4, MaxN: 6, MaxConfigs: 60000}
}

// ExperimentTheorem2Border sweeps (n, f, k) across the Theorem 2 border
// k <= (n-1)/(n-f). Inside the bound, the Theorem 1 engine must refute the
// f-resilient candidate algorithm (MinWait) by constructing a full violation
// run; outside the bound (k > f), a fair run of the same algorithm must
// decide with at most k distinct values — matching the paper's claim that
// the border is exact.
func ExperimentTheorem2Border(p E1Params) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Theorem 2 border: k-set agreement with f faults, partially synchronous processes",
		Columns: []string{
			"n", "f", "k", "regime", "outcome", "detail",
		},
		Notes: []string{
			"regime 'impossible' means k <= (n-1)/(n-f) (Theorem 2); 'solvable' means f < k (classic f-resilience)",
			"impossible rows: the Theorem 1 engine constructs the violating run for the candidate algorithm",
			"solvable rows: a fair run decides with <= k distinct values",
		},
	}
	// Every (n, f, k) cell is independent, so the sweep fans out over the
	// SweepWorkers pool; per-cell result slots keep the row order identical
	// to the sequential triple loop.
	type cell struct{ n, f, k int }
	var cells []cell
	for n := p.MinN; n <= p.MaxN; n++ {
		for f := 1; f < n; f++ {
			for k := 1; k <= 3 && k < n; k++ {
				cells = append(cells, cell{n, f, k})
			}
		}
	}
	search := orDefault(p.Search)
	rows, err := sweepRows(len(cells), func(i int) ([]string, error) {
		n, f, k := cells[i].n, cells[i].f, cells[i].k
		l := n - f
		switch {
		case k*l+1 <= n:
			// Impossible regime: apply the engine.
			rep, err := search.VerifyTheorem2Row(context.Background(), n, f, k, p.MaxConfigs)
			if err != nil {
				return nil, fmt.Errorf("E1: engine n=%d f=%d k=%d: %w", n, f, k, err)
			}
			outcome := "NOT REFUTED"
			detail := rep.Summary()
			if rep.Refuted {
				outcome = "refuted"
				detail = fmt.Sprintf("%s violation, %d distinct decisions in pasted run",
					rep.Violation, len(rep.DistinctDecided))
			}
			return rowOf(n, f, k, "impossible", outcome, detail), nil
		case f < k:
			// Solvable regime: run the f-resilient algorithm fairly.
			run, err := Simulate(algorithms.MinWait{F: f}, DistinctInputs(n), SimOptions{})
			if err != nil {
				return nil, fmt.Errorf("E1: fair run n=%d f=%d k=%d: %w", n, f, k, err)
			}
			d := len(run.DistinctDecisions())
			outcome := "decided"
			if d > k {
				outcome = "AGREEMENT BROKEN"
			}
			return rowOf(n, f, k, "solvable", outcome, fmt.Sprintf("%d distinct decisions (<= k)", d)), nil
		default:
			// Between the borders: neither Theorem 2 nor plain
			// f-resilience covers (k <= f but k > (n-1)/(n-f));
			// Theorem 2's Corollary 5 still applies with all-f late
			// crashes; recorded for the sweep's completeness.
			return rowOf(n, f, k, "gap", "-", "outside both constructions"), nil
		}
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// VerifyTheorem2Row runs the engine for one (n, f, k) inside the bound and
// returns the report — the programmatic form of an E1 row, used by tests.
// It searches with the default Options; the Searcher method takes a
// configuration and a context.
func VerifyTheorem2Row(n, f, k, maxConfigs int) (*core.Report, error) {
	return orDefault(nil).VerifyTheorem2Row(context.Background(), n, f, k, maxConfigs)
}

// VerifyTheorem2Row runs the Theorem 2 engine instance for one (n, f, k)
// inside the bound with this Searcher's knobs: MinWait under the Lemma 3
// partition with a one-crash subsystem adversary.
func (s *Searcher) VerifyTheorem2Row(ctx context.Context, n, f, k, maxConfigs int) (*core.Report, error) {
	spec, err := core.Theorem2Partition(n, f, k)
	if err != nil {
		return nil, err
	}
	return s.CheckImpossibility(ctx, core.Instance{
		Alg:             algorithms.MinWait{F: f},
		Inputs:          DistinctInputs(n),
		Spec:            spec,
		DBarCrashBudget: 1,
		MaxConfigs:      maxConfigs,
	})
}
