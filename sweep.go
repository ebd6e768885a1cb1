package kset

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepWorkers caps the number of worker goroutines used to evaluate
// independent sweep cells of the experiment runners (E1, E5, E12, ...).
// Zero, the default, means GOMAXPROCS; 1 forces sequential evaluation.
// Every sweep cell is self-contained — it builds its own explorer, oracle,
// and runs — so cells parallelize without shared state, and results are
// written into per-cell slots so the emitted table rows keep the exact
// deterministic order of the sequential sweep.
//
// SweepWorkers is not part of the Options/Searcher API: it configures
// table generation in the CLI process, never a search result, so it has no
// server-side twin and no effect on verdicts or digests. Per-search
// parallelism is Options.Workers.
var SweepWorkers = 0

// sweepWorkerCount resolves SweepWorkers against the cell count.
func sweepWorkerCount(cells int) int {
	w := SweepWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachCell evaluates fn(i) for every cell index in [0, cells) on a
// bounded worker pool. fn must only write state owned by cell i. The
// returned error is the lowest-indexed one, so failures are as deterministic
// as the sequential loop's.
func forEachCell(cells int, fn func(i int) error) error {
	if cells <= 0 {
		return nil
	}
	workers := sweepWorkerCount(cells)
	if workers == 1 {
		for i := 0; i < cells; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, cells)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepRows evaluates cell(i) — one table row per cell — across the worker
// pool and returns the rows in cell order.
func sweepRows(cells int, cell func(i int) ([]string, error)) ([][]string, error) {
	rows := make([][]string, cells)
	err := forEachCell(cells, func(i int) error {
		row, err := cell(i)
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// rowOf stringifies cells exactly like Table.AddRow.
func rowOf(cells ...interface{}) []string {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	return row
}
