package kset

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSearchStoreFacadeParity proves Options.Store is purely a
// memory-regime control on the public facade: the condition-(C) search
// finds the identical witness with identical stats under every store mode,
// at sequential and parallel worker counts.
func TestSearchStoreFacadeParity(t *testing.T) {
	live := []ProcessID{1, 2, 3}
	refW, refFound := findFailure(t, Options{Workers: 1}, NewMinWait(1), DistinctInputs(3), live, 0, 0)
	if !refFound {
		t.Fatal("MinWait{F:1} disagreement not found in 3-process system")
	}
	for _, store := range []string{"inmem", "frontier", "spill"} {
		for _, workers := range []int{1, 4} {
			w, found := findFailure(t, Options{Store: store, Workers: workers}, NewMinWait(1), DistinctInputs(3), live, 0, 0)
			if found != refFound || w.Kind != refW.Kind || w.Detail != refW.Detail || w.Stats != refW.Stats {
				t.Fatalf("store=%s workers=%d diverged: found=%t %s %q %+v vs %s %q %+v",
					store, workers, found, w.Kind, w.Detail, w.Stats, refW.Kind, refW.Detail, refW.Stats)
			}
		}
	}
}

// TestSearchStoreBivalenceTable proves the E6 valence table renders
// identically under the bounded stores: valence bookkeeping is
// frontier-only by construction, so the store knob must change nothing.
func TestSearchStoreBivalenceTable(t *testing.T) {
	ref, err := ExperimentBivalenceWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []string{"frontier", "spill"} {
		s, err := NewSearcher(Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ExperimentBivalenceWith(s)
		if err != nil {
			t.Fatal(err)
		}
		if tab.String() != ref.String() {
			t.Fatalf("E6 table changed under Store=%s:\n%s\nvs default:\n%s", store, tab.String(), ref.String())
		}
	}
}

// TestSearchCheckpointFacade proves the checkpoint flow end-to-end through
// the facade: a budget-truncated bounded search leaves a checkpoint file in
// Options.Checkpoint, and rerunning the identical search with a full budget
// resumes from it and lands on the uninterrupted result.
func TestSearchCheckpointFacade(t *testing.T) {
	alg, inputs, live := NewMinWait(1), []Value{0, 0, 0}, []ProcessID{1, 2, 3}

	refW, refFound := findFailure(t, Options{Store: "frontier"}, alg, inputs, live, 1, 0)
	if refFound || refW.Stats.Truncated {
		t.Fatalf("reference: found=%t stats=%+v", refFound, refW.Stats)
	}

	dir := t.TempDir()
	ckpt := Options{Store: "frontier", Checkpoint: dir}
	findFailure(t, ckpt, alg, inputs, live, 1, refW.Stats.Visited/3)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint files written to %s (err=%v)", dir, err)
	}
	w, found := findFailure(t, ckpt, alg, inputs, live, 1, 0)
	if found != refFound || w.Stats != refW.Stats {
		t.Fatalf("resumed run diverged: found=%t stats=%+v vs %+v", found, w.Stats, refW.Stats)
	}
	// Completion must remove the consumed checkpoints.
	left, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(left) != 0 {
		t.Fatalf("checkpoints left after completed searches: %v", left)
	}
}
