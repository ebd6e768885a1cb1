package kset

import (
	"testing"

	"kset/internal/testutil"
)

// TestSearchSymmetryFacadeParity proves Options.Symmetry is purely a
// performance control on the public facade: the condition-(C) search
// reaches the same verdict with and without orbit reduction, visiting at
// most as many configurations, and on the uniform-input instance strictly
// (at least 2x) fewer.
func TestSearchSymmetryFacadeParity(t *testing.T) {
	cases := []struct {
		name   string
		inputs []Value
	}{
		{"distinct", DistinctInputs(4)},
		{"uniform", []Value{0, 0, 0, 0}},
	}
	live := []ProcessID{1, 2, 3, 4}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plainW, plainFound := findFailure(t, Options{}, NewMinWait(1), c.inputs, live, 1, 0)
			symW, symFound := findFailure(t, Options{Symmetry: true}, NewMinWait(1), c.inputs, live, 1, 0)
			if symFound != plainFound {
				t.Fatalf("verdict diverged: symmetry found=%t, plain found=%t", symFound, plainFound)
			}
			if symW.Stats.Visited > plainW.Stats.Visited {
				t.Fatalf("symmetry visited %d > plain %d", symW.Stats.Visited, plainW.Stats.Visited)
			}
			if c.name == "uniform" && 2*symW.Stats.Visited > plainW.Stats.Visited {
				t.Fatalf("expected >= 2x reduction on uniform inputs: symmetry %d, plain %d",
					symW.Stats.Visited, plainW.Stats.Visited)
			}
			if symFound {
				testutil.RevalidateWitness(t, symW.Kind, symW.Run)
			}
		})
	}
}

// TestSearchSymmetryBivalenceTable proves the E6 valence table — whose
// searches use orbit-canonical keys when Options.Symmetry is set — renders
// identically with the knob on and off (decision values are
// orbit-invariant).
func TestSearchSymmetryBivalenceTable(t *testing.T) {
	plain, err := ExperimentBivalenceWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	symS, err := NewSearcher(Options{Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := ExperimentBivalenceWith(symS)
	if err != nil {
		t.Fatal(err)
	}
	if sym.String() != plain.String() {
		t.Fatalf("E6 table changed under Options.Symmetry:\n%s\nvs plain:\n%s", sym.String(), plain.String())
	}
}
