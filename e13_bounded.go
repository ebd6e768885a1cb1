package kset

import (
	"context"
	"fmt"
	"os"

	"kset/internal/algorithms"
	"kset/internal/explore"
	"kset/internal/sim"
)

// E13Params parameterizes the memory-bounded exploration experiment: the
// uniform-input Theorem 2 shape (every process proposes the same value, all
// n live, a multi-crash adversary budget) scaled past the default search
// budget, explored exhaustively by the frontier-only store.
type E13Params struct {
	// N is the system size; all processes are live and propose value 0.
	N int
	// F is MinWait's resilience parameter (the protocol waits for n-f
	// values).
	F int
	// Budget is the adversary's crash budget.
	Budget int
	// InMemMaxConfigs caps the in-memory comparison row; the default search
	// budget (explore.DefaultMaxConfigs), at which it truncates on this
	// instance.
	InMemMaxConfigs int
	// MaxConfigs caps the bounded rows, set above the instance's full
	// reduced state-space size so they run to exhaustion.
	MaxConfigs int
	// Spill adds a disk-spill row (same result as frontier; the sealed
	// levels stream to a temporary file instead of being dropped).
	Spill bool
	// Search configures the searches' worker count, checkpoint directory and
	// fault model (the store and reductions are the experiment's subject and
	// fixed per row); nil means default options.
	Search *Searcher
}

// DefaultE13Params returns the instance used by cmd/experiments: n = 8,
// whose ~766k-state reduced space is past the default search budget (the
// truncation contrast is real), overridable to a smaller
// system via the E13_N environment variable (6 or 7). The searches run on
// the packed engine. The nightly GOMEMLIMIT=1GiB gate runs E13_N=7 —
// largest live heap ~200 MB, far under the cap, and ~3.4 s on a 2-vCPU VM
// — because at n = 8 the live BFS frontier itself (two levels of ~150k
// concrete configurations, each carrying O(n²) buffered messages) takes
// the largest live heap to ~1.4 GB (~22 s) no matter which store mode
// tracks the visited set; see the experiment notes.
func DefaultE13Params() E13Params {
	p := E13Params{
		N:               8,
		F:               2,
		Budget:          2,
		InMemMaxConfigs: explore.DefaultMaxConfigs,
		MaxConfigs:      8_000_000,
		Spill:           true,
	}
	switch os.Getenv("E13_N") {
	case "6":
		p.N = 6
	case "7":
		p.N = 7
	}
	return p
}

// ExperimentBoundedExploration (E13) demonstrates the memory-bounded
// exploration core on an instance the default budget cannot finish: the
// uniform-input Theorem 2 shape at n processes with a multi-crash budget,
// symmetry and partial-order reduction stacked (uniform proposals give the
// full symmetric group as stabilizer — the reductions' best case — and the
// space is still past the default budget). Uniform proposals make
// disagreement unreachable (validity), so the exhaustive verification "no
// disagreement exists" is the product — precisely the workload whose visited
// set dwarfs its frontier.
//
// The in-memory row truncates at the default budget: every visited
// configuration costs it a visited key plus an 8-byte level record held in
// memory (~23-26 B/state measured at n = 6 and 7), so the budget stops the
// search at a fraction of the space. The frontier-only row completes the same search, retaining
// ~11-16 B per visited state (the open-addressed visited-key set) plus two
// BFS levels; the spill row streams the 8 B/state level-generation log to
// disk instead, which is what witness reconstruction and checkpoints read
// back. All rows are deterministic, and the bounded rows'
// visited counts are the instance's exact reduced state-space size. The
// nightly CI workflow re-runs this experiment at E13_N=7 under
// GOMEMLIMIT=1GiB (largest live heap ~200 MB) and at full scale without
// the cap.
func ExperimentBoundedExploration(p E13Params) (*Table, error) {
	search := orDefault(p.Search)
	adversary := "a crash-budget adversary"
	if search.faults.Model != sim.FaultCrash {
		adversary += " with " + search.opts.Faults + " faults (POR stands down under them)"
	}
	t := &Table{
		ID:    "E13",
		Title: "Memory-bounded exploration: uniform Theorem 2 beyond the default budget",
		Columns: []string{
			"store", "n", "f", "budget", "maxconfigs", "visited", "outcome", "detail",
		},
		Notes: []string{
			"uniform inputs, all processes live, symmetry+POR stacked; MinWait(f) under " + adversary,
			"inmem retains ~23-26 B/state (visited key + 8 B level record) and truncates at its default budget;",
			"frontier retains ~11-16 B/state (open-addressed visited keys) plus two live BFS levels and completes;",
			"spill additionally streams the 8 B/state level-generation log to disk (checkpoint/witness source)",
			"nightly CI re-runs this experiment at E13_N=7 under GOMEMLIMIT=1GiB and at full scale uncapped",
		},
	}

	type row struct {
		store      string
		maxConfigs int
	}
	rows := []row{
		{"inmem", p.InMemMaxConfigs},
		{"frontier", p.MaxConfigs},
	}
	if p.Spill {
		rows = append(rows, row{"spill", p.MaxConfigs})
	}

	inputs := make([]sim.Value, p.N)
	live := make([]sim.ProcessID, p.N)
	for i := range live {
		live[i] = sim.ProcessID(i + 1)
	}
	exhaustiveVisited := -1
	for _, r := range rows {
		store, err := explore.ParseStore(r.store)
		if err != nil {
			return nil, fmt.Errorf("E13: %w", err)
		}
		opts := search.exploreOptions(context.Background())
		opts.Live = live
		opts.MaxCrashes = p.Budget
		opts.MaxConfigs = r.maxConfigs
		opts.Symmetry, opts.POR, opts.Store = true, true, store
		e := explore.New(algorithms.MinWait{F: p.F}, inputs, opts)
		w, found, err := e.FindDisagreement()
		if err != nil {
			return nil, fmt.Errorf("E13: %s search: %w", r.store, err)
		}
		if found {
			return nil, fmt.Errorf("E13: uniform inputs disagreed (validity violated): %s", w.Detail)
		}
		outcome, detail := "exhausted", "no disagreement reachable (validity verified exhaustively)"
		if w.Stats.Truncated {
			outcome = "truncated"
			detail = "budget reached; verdict inconclusive"
			if w.Checkpoint != "" {
				detail += " (paused state checkpointed)"
			}
		} else {
			if exhaustiveVisited == -1 {
				exhaustiveVisited = w.Stats.Visited
			} else if w.Stats.Visited != exhaustiveVisited {
				return nil, fmt.Errorf("E13: bounded stores diverged: %d vs %d visited", w.Stats.Visited, exhaustiveVisited)
			}
		}
		t.AddRow(r.store, p.N, p.F, p.Budget, r.maxConfigs, w.Stats.Visited, outcome, detail)
	}
	return t, nil
}
