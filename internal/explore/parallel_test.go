package explore

import (
	"runtime"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

// TestParallelSearchDeterministic runs the parallel finders repeatedly with
// more workers than frontier entries and asserts that every run returns the
// identical witness: same detail, same scheduled run, same stats. This is
// the determinism guarantee of the claim-table design, independent of
// goroutine interleaving.
func TestParallelSearchDeterministic(t *testing.T) {
	d := diffInstances()[0] // minwait-n3: disagreement reachable
	var detail, sig string
	var stats Stats
	for i := 0; i < 5; i++ {
		w, found, err := New(sim.Restrict(d.alg, d.live), d.inputs, Options{Live: d.live, Workers: 8}).FindDisagreement()
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatal("witness not found")
		}
		if i == 0 {
			detail, sig, stats = w.Detail, runSignature(w.Run), w.Stats
			continue
		}
		if w.Detail != detail || runSignature(w.Run) != sig || w.Stats != stats {
			t.Fatalf("run %d diverged: detail=%q stats=%+v", i, w.Detail, w.Stats)
		}
	}
}

// TestSearchWorkersResolution checks the Workers knob: zero resolves to
// GOMAXPROCS, explicit values are respected, and the DFS strategy stays on
// the sequential engine regardless.
func TestSearchWorkersResolution(t *testing.T) {
	e := New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{Live: []sim.ProcessID{1, 2, 3}})
	if got, want := e.searchWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d", got, want)
	}
	e = New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{Live: []sim.ProcessID{1, 2, 3}, Workers: 3})
	if got := e.searchWorkers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}

	// DFS with many workers must match DFS with one worker (it is the same
	// sequential engine; the knob only applies to breadth-first searches).
	mk := func(workers int) *Explorer {
		return New(algorithms.MinWait{F: 1}, []sim.Value{0, 1, 2}, Options{
			Live:     []sim.ProcessID{1, 2, 3},
			Strategy: "dfs",
			Workers:  workers,
		})
	}
	seqW, seqFound, err := mk(1).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	parW, parFound, err := mk(4).FindDisagreement()
	if err != nil {
		t.Fatal(err)
	}
	if parFound != seqFound || parW.Stats != seqW.Stats || runSignature(parW.Run) != runSignature(seqW.Run) {
		t.Fatal("DFS search changed behaviour under Workers > 1")
	}
}

// stubOracle is a pure, concurrency-safe oracle: a deterministic function of
// the query alone.
type stubOracle struct{}

func (stubOracle) Query(p sim.ProcessID, t int, _ *sim.Configuration) sim.FDValue {
	return nil
}
