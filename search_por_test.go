package kset

import (
	"context"
	"testing"

	"kset/internal/testutil"
)

// TestSearchPORFacadeParity proves Options.POR is purely a performance
// control on the public facade: the condition-(C) search reaches the same
// verdict with and without partial-order reduction, visiting at most as
// many configurations, and on the uniform-input instance strictly (at least
// 2x) fewer — alone and stacked on Options.Symmetry.
func TestSearchPORFacadeParity(t *testing.T) {
	cases := []struct {
		name   string
		inputs []Value
	}{
		{"distinct", DistinctInputs(4)},
		{"uniform", []Value{0, 0, 0, 0}},
	}
	live := []ProcessID{1, 2, 3, 4}
	for _, c := range cases {
		for _, symmetry := range []bool{false, true} {
			name := c.name
			if symmetry {
				name += "+symmetry"
			}
			t.Run(name, func(t *testing.T) {
				plainW, plainFound := findFailure(t, Options{Symmetry: symmetry}, NewMinWait(1), c.inputs, live, 1, 0)
				porW, porFound := findFailure(t, Options{Symmetry: symmetry, POR: true}, NewMinWait(1), c.inputs, live, 1, 0)
				if porFound != plainFound {
					t.Fatalf("verdict diverged: por found=%t, plain found=%t", porFound, plainFound)
				}
				if porW.Stats.Visited > plainW.Stats.Visited {
					t.Fatalf("por visited %d > plain %d", porW.Stats.Visited, plainW.Stats.Visited)
				}
				if c.name == "uniform" && 2*porW.Stats.Visited > plainW.Stats.Visited {
					t.Fatalf("expected >= 2x reduction on uniform inputs: por %d, plain %d",
						porW.Stats.Visited, plainW.Stats.Visited)
				}
				if porFound {
					testutil.RevalidateWitness(t, porW.Kind, porW.Run)
				}
			})
		}
	}
}

// TestSearchPORBivalenceTable proves the E6 valence table — whose searches
// enumerate reduced action sets when Options.POR is set, while the
// critical-step analysis still lists every first action — renders
// identically with the knob on and off, alone and composed with
// Options.Symmetry.
func TestSearchPORBivalenceTable(t *testing.T) {
	for _, symmetry := range []bool{false, true} {
		plain := bivalenceTable(t, Options{Symmetry: symmetry})
		if por := bivalenceTable(t, Options{Symmetry: symmetry, POR: true}); por != plain {
			t.Fatalf("E6 table changed under POR (symmetry=%t):\n%s\nvs plain:\n%s", symmetry, por, plain)
		}
	}
}

// TestSearchPORTheorem2Engine proves the POR knob threads through the full
// Theorem 1 pipeline: the E1 engine row refutes MinWait identically with
// the reduction on and off (distinct proposals, DFS condition-(C) search).
func TestSearchPORTheorem2Engine(t *testing.T) {
	plain, err := VerifyTheorem2Row(5, 3, 2, 60000)
	if err != nil {
		t.Fatal(err)
	}
	porS, err := NewSearcher(Options{POR: true})
	if err != nil {
		t.Fatal(err)
	}
	por, err := porS.VerifyTheorem2Row(context.Background(), 5, 3, 2, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if por.Refuted != plain.Refuted || por.Violation != plain.Violation {
		t.Fatalf("engine verdict diverged: por (refuted=%t, %q), plain (refuted=%t, %q)",
			por.Refuted, por.Violation, plain.Refuted, plain.Violation)
	}
	if len(por.DistinctDecided) != len(plain.DistinctDecided) {
		t.Fatalf("pasted decision census diverged: por %v, plain %v", por.DistinctDecided, plain.DistinctDecided)
	}
}
