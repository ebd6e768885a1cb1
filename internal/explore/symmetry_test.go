package explore

import (
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

// symInstances extends the differential suite with the repeated-input
// instances where the stabilizer is non-trivial and orbit reduction
// actually collapses configurations. uniform-t2 is the uniform-input
// Theorem 2 shape (one late crash among four interchangeable processes).
func symInstances() []diffInstance {
	return append(diffInstances(),
		diffInstance{"minwait-n3-uniform", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0}, []sim.ProcessID{1, 2, 3}, 1},
		diffInstance{"minwait-n4-uniform-t2", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0, 0}, []sim.ProcessID{1, 2, 3, 4}, 1},
		diffInstance{"minwait-n4-twoblock", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 1, 1}, []sim.ProcessID{1, 2, 3, 4}, 0},
		diffInstance{"firstheard-n4-uniform", algorithms.FirstHeard{}, []sim.Value{3, 3, 3, 3}, []sim.ProcessID{1, 2, 3, 4}, 0},
		diffInstance{"flpkset-n3-uniform", algorithms.FLPKSet{F: 1}, []sim.Value{2, 2, 2}, []sim.ProcessID{1, 2, 3}, 0},
		// FLPKSet with a non-trivial stabilizer across MIXED inputs is the
		// shape where its minimum-id decide rule is not renaming-equivariant
		// (component {1,2} decides x_1, its renaming {3,2} decides x_2):
		// FLPKSet opts out of SymHasher64, so parity must hold because the
		// flag collapses nothing for it — this instance guards that opt-out.
		diffInstance{"flpkset-n3-mixed", algorithms.FLPKSet{F: 1}, []sim.Value{0, 1, 0}, []sim.ProcessID{1, 2, 3}, 0},
		diffInstance{"decideown-n3-uniform", algorithms.DecideOwn{}, []sim.Value{0, 0, 0}, []sim.ProcessID{1, 2, 3}, 0},
	)
}

// TestSymmetryVerdictParity is the acceptance gate of the symmetry layer:
// for every instance of the extended differential suite and both witness
// goals, the symmetry-reduced search must (1) reach the same
// possible/impossible verdict as the plain search, (2) visit at most as
// many configurations, and (3) emit witnesses that independently revalidate
// — the replayed run concretely exhibits the violation.
func TestSymmetryVerdictParity(t *testing.T) {
	goals := []struct {
		name string
		goal goalFunc
	}{
		{"disagreement", disagreementGoal},
		{"blocking", blockingGoal},
	}
	for _, d := range symInstances() {
		for _, g := range goals {
			t.Run(d.name+"/"+g.name, func(t *testing.T) {
				plainW, plainFound, err := d.explorer().search(g.goal, g.name)
				if err != nil {
					t.Fatal(err)
				}
				symW, symFound, err := d.reduced(true, false).search(g.goal, g.name)
				if err != nil {
					t.Fatal(err)
				}
				if plainW.Stats.Truncated || symW.Stats.Truncated {
					t.Fatalf("instance not exhaustive (plain %d, sym %d)", plainW.Stats.Visited, symW.Stats.Visited)
				}
				if symFound != plainFound {
					t.Fatalf("verdict diverged: symmetry found=%t, plain found=%t", symFound, plainFound)
				}
				if symW.Stats.Visited > plainW.Stats.Visited {
					t.Fatalf("symmetry visited %d > plain %d", symW.Stats.Visited, plainW.Stats.Visited)
				}
				if symFound {
					testutil.RevalidateWitness(t, symW.Kind, symW.Run)
				}
			})
		}
	}
}

// TestSymmetryStrictReductionUniformTheorem2 pins the asymptotic payoff:
// on the uniform-input Theorem 2 instance the orbit-reduced exhaustive
// search must visit strictly fewer — in fact at least 2x fewer —
// configurations than the plain search.
func TestSymmetryStrictReductionUniformTheorem2(t *testing.T) {
	d := diffInstance{"minwait-n4-uniform-t2", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0, 0}, []sim.ProcessID{1, 2, 3, 4}, 1}
	plainW, plainFound, err := d.explorer().search(disagreementGoal, "disagreement")
	if err != nil {
		t.Fatal(err)
	}
	symW, symFound, err := d.reduced(true, false).search(disagreementGoal, "disagreement")
	if err != nil {
		t.Fatal(err)
	}
	if plainFound || symFound {
		t.Fatalf("uniform inputs cannot disagree (validity): plain=%t sym=%t", plainFound, symFound)
	}
	if plainW.Stats.Truncated || symW.Stats.Truncated {
		t.Fatal("search truncated; raise MaxConfigs")
	}
	if 2*symW.Stats.Visited > plainW.Stats.Visited {
		t.Fatalf("expected >= 2x node reduction: symmetry visited %d, plain visited %d",
			symW.Stats.Visited, plainW.Stats.Visited)
	}
	t.Logf("uniform Theorem 2 instance: plain %d nodes, symmetry %d nodes (%.1fx reduction)",
		plainW.Stats.Visited, symW.Stats.Visited, float64(plainW.Stats.Visited)/float64(symW.Stats.Visited))
}

// TestSymmetryValenceParity asserts that valence classification — the
// engine behind E6 and the critical-step analysis — returns the same
// reachable decision values with and without symmetry reduction (decision
// values are orbit-invariant: renamings permute which process holds a
// decision, never the value).
func TestSymmetryValenceParity(t *testing.T) {
	for _, d := range symInstances() {
		t.Run(d.name, func(t *testing.T) {
			plainVals, plainStats, err := d.explorer().Valence(0)
			if err != nil {
				t.Fatal(err)
			}
			symVals, symStats, err := d.reduced(true, false).Valence(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(plainVals) != len(symVals) {
				t.Fatalf("valence diverged: plain %v, symmetry %v", plainVals, symVals)
			}
			for i := range plainVals {
				if plainVals[i] != symVals[i] {
					t.Fatalf("valence diverged: plain %v, symmetry %v", plainVals, symVals)
				}
			}
			if symStats.Visited > plainStats.Visited {
				t.Fatalf("symmetry valence visited %d > plain %d", symStats.Visited, plainStats.Visited)
			}
		})
	}
}

// TestSymmetryTrivialStabilizerCollisionCorpus asserts that on the original
// differential suite — whose distinct proposals make the stabilizer trivial
// — the orbit-canonical key distinguishes exactly the configurations the
// legacy string key does: symmetry reduction introduces no collisions
// beyond the plain fingerprint's on the existing corpus.
func TestSymmetryTrivialStabilizerCollisionCorpus(t *testing.T) {
	for _, d := range diffInstances() {
		t.Run(d.name, func(t *testing.T) {
			const maxConfigs = 400000
			legacy := enumerate(t, d.explorer(), false, maxConfigs)
			e := d.reduced(true, false)
			reached := reachedBy(t, e, func(cfg *sim.Configuration, crashes int) any { return e.key(cfg, crashes) }, maxConfigs)
			if len(reached) != len(legacy) {
				t.Fatalf("trivial-stabilizer canonical search reached %d configurations, legacy %d",
					len(reached), len(legacy))
			}
			for key := range legacy {
				if !reached[key] {
					t.Fatalf("canonical search missed configuration %s", key)
				}
			}
		})
	}
}
