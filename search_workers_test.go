package kset

import "testing"

// TestSearchWorkersFacadeParity proves Options.Workers is purely a
// performance control on the public facade: the condition-(C) search finds
// the identical witness with identical stats at any worker count.
func TestSearchWorkersFacadeParity(t *testing.T) {
	live := []ProcessID{1, 2, 3}
	seqW, seqFound := findFailure(t, Options{Workers: 1}, NewMinWait(1), DistinctInputs(3), live, 0, 0)
	parW, parFound := findFailure(t, Options{Workers: 4}, NewMinWait(1), DistinctInputs(3), live, 0, 0)
	if parFound != seqFound {
		t.Fatalf("parallel found=%t, sequential found=%t", parFound, seqFound)
	}
	if !seqFound {
		t.Fatal("MinWait{F:1} disagreement not found in 3-process system")
	}
	if parW.Kind != seqW.Kind || parW.Detail != seqW.Detail || parW.Stats != seqW.Stats {
		t.Fatalf("parallel witness diverged: %s %q %+v vs %s %q %+v",
			parW.Kind, parW.Detail, parW.Stats, seqW.Kind, seqW.Detail, seqW.Stats)
	}
}

// TestSearchWorkersBivalenceTable proves the E6 valence table — whose
// searches run on the parallel frontier when Options.Workers > 1 — renders
// identically at any worker count.
func TestSearchWorkersBivalenceTable(t *testing.T) {
	seq := bivalenceTable(t, Options{Workers: 1})
	if par := bivalenceTable(t, Options{Workers: 4}); par != seq {
		t.Fatalf("E6 table changed under Workers=4:\n%s\nvs sequential:\n%s", par, seq)
	}
}
