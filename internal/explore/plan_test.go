package explore

import (
	"sync/atomic"
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
)

// TestCommitsOnlyNewSuccessors pins what the kernel builds: every successor
// is planned and keyed first, and committed only once its key has passed the
// visited check. On the light exhaust instance (MinWait f=2 on five
// processes with uniform inputs, crash budget 2, symmetry, POR, frontier
// store) the serial one-pass FindConsensusFailure commits exactly one
// configuration per sealed non-root configuration, 3,890 of them, where
// building each successor before keying it built 39,017. The fan-out keeps
// within-level duplicates until its claim table resolves them, so at two
// workers it commits at most the candidates that pass the sealed-visited
// check, which a reference level-by-level expansion counts here.
func TestCommitsOnlyNewSuccessors(t *testing.T) {
	inputs := []sim.Value{4, 4, 4, 4, 4}
	opts := Options{
		Live:       []sim.ProcessID{1, 2, 3, 4, 5},
		MaxCrashes: 2,
		MaxConfigs: 1 << 20,
		Symmetry:   true,
		POR:        true,
		Store:      StoreFrontierOnly,
	}
	run := func(workers int) (commits, sealed int) {
		t.Helper()
		o := opts
		o.Workers = workers
		e := New(algorithms.MinWait{F: 2}, inputs, o)
		var n atomic.Int64
		e.onCommit = func() { n.Add(1) }
		var vis *visitedSet
		e.onVisited = func(v *visitedSet) { vis = v }
		w, found, _, err := e.FindConsensusFailure()
		if err != nil || found || w.Stats.Truncated {
			t.Fatalf("workers %d: found=%t truncated=%t err=%v", workers, found, w.Stats.Truncated, err)
		}
		return int(n.Load()), vis.Len() - 1
	}

	commits, sealed := run(1)
	if sealed != 3890 || commits != sealed {
		t.Fatalf("serial pass sealed %d non-root configurations and committed %d, want 3890 of each", sealed, commits)
	}

	o := opts
	o.Workers = 1
	passing := sealedCheckPasses(t, New(algorithms.MinWait{F: 2}, inputs, o))
	commits2, sealed2 := run(2)
	if sealed2 != sealed || commits2 < sealed || commits2 > passing {
		t.Fatalf("two workers sealed %d and committed %d; want %d sealed and between %d and %d commits", sealed2, commits2, sealed, sealed, passing)
	}
	t.Logf("serial commits %d; two workers commit %d of %d candidates that pass the sealed-visited check", commits, commits2, passing)
}

// sealedCheckPasses expands e's search level by level, as the fan-out does
// with a level in one chunk, and counts the candidates whose key is not
// sealed when their level is expanded: the keys of earlier levels and of
// the level itself.
func sealedCheckPasses(t *testing.T, e *Explorer) int {
	t.Helper()
	start, err := e.initial()
	if err != nil {
		t.Fatal(err)
	}
	sealed := map[uint64]bool{e.key(start, 0): true}
	frontier := []qent{{cfg: start}}
	passes := 0
	for len(frontier) > 0 {
		var next []qent
		level := map[uint64]bool{}
		for _, parent := range frontier {
			for _, act := range e.actions(parent.cfg, int(parent.crashes)) {
				if !e.sc.plan(parent.cfg, act) {
					continue
				}
				crashes := parent.crashes
				if act.Crash {
					crashes++
				}
				k := e.key(&e.sc.succ, int(crashes))
				if sealed[k] {
					continue
				}
				passes++
				if !level[k] {
					level[k] = true
					next = append(next, qent{cfg: e.sc.commit(), crashes: crashes})
				}
			}
		}
		for k := range level {
			sealed[k] = true
		}
		frontier = next
	}
	return passes
}
