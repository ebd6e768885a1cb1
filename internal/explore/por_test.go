package explore

import (
	"testing"

	"kset/internal/algorithms"
	"kset/internal/sim"
	"kset/internal/testutil"
)

// porInstances is the POR differential suite: the symmetry suite (distinct,
// uniform, and block inputs across MinWait, FirstHeard, FLPKSet, DecideOwn)
// plus a crash-budget FLPKSet instance, whose reachable blocking verdict
// exercises the only goal the commutation argument handles by buffer
// non-emptiness rather than by decision monotonicity, and an oracle-free
// QuorumMin instance pinning its SendsDone opt-in (no detector means no
// decisions — every search degenerates to the blocking question).
func porInstances() []diffInstance {
	return append(symInstances(),
		diffInstance{"flpkset-n3-crash", algorithms.FLPKSet{F: 1}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 1},
		diffInstance{"quorummin-n3-crash", algorithms.QuorumMin{}, []sim.Value{0, 1, 2}, []sim.ProcessID{1, 2, 3}, 1},
	)
}

// TestPORVerdictParity is the acceptance gate of the reduction layer: for
// every instance of the POR differential suite and both witness goals, the
// reduced search must (1) reach the same possible/impossible verdict as the
// plain search, (2) visit at most as many configurations, and (3) emit
// witnesses that independently revalidate — the replayed run concretely
// exhibits the violation. The same matrix runs with symmetry reduction
// stacked on both sides, proving the two reductions compose.
func TestPORVerdictParity(t *testing.T) {
	goals := []struct {
		name string
		goal goalFunc
	}{
		{"disagreement", disagreementGoal},
		{"blocking", blockingGoal},
	}
	layers := []struct {
		name    string
		plain   func(diffInstance) *Explorer
		reduced func(diffInstance) *Explorer
	}{
		{"por-vs-plain",
			func(d diffInstance) *Explorer { return d.explorer() },
			func(d diffInstance) *Explorer { return d.reduced(false, true) }},
		{"por+sym-vs-sym",
			func(d diffInstance) *Explorer { return d.reduced(true, false) },
			func(d diffInstance) *Explorer { return d.reduced(true, true) }},
	}
	for _, l := range layers {
		for _, d := range porInstances() {
			for _, g := range goals {
				t.Run(l.name+"/"+d.name+"/"+g.name, func(t *testing.T) {
					plainW, plainFound, err := l.plain(d).search(g.goal, g.name)
					if err != nil {
						t.Fatal(err)
					}
					porW, porFound, err := l.reduced(d).search(g.goal, g.name)
					if err != nil {
						t.Fatal(err)
					}
					if plainW.Stats.Truncated || porW.Stats.Truncated {
						t.Fatalf("instance not exhaustive (plain %d, por %d)", plainW.Stats.Visited, porW.Stats.Visited)
					}
					if porFound != plainFound {
						t.Fatalf("verdict diverged: por found=%t, plain found=%t", porFound, plainFound)
					}
					if porW.Stats.Visited > plainW.Stats.Visited {
						t.Fatalf("por visited %d > plain %d", porW.Stats.Visited, plainW.Stats.Visited)
					}
					if porFound {
						testutil.RevalidateWitness(t, porW.Kind, porW.Run)
					}
				})
			}
		}
	}
}

// TestPORStrictReductionUniformTheorem2 pins the asymptotic payoff and the
// composition with symmetry: on the uniform-input Theorem 2 instance the
// reduced exhaustive search must visit at least 2x fewer configurations
// than the plain search, and stacking POR on the symmetry-reduced search
// must again cut at least 2x beyond symmetry alone.
func TestPORStrictReductionUniformTheorem2(t *testing.T) {
	d := diffInstance{"minwait-n4-uniform-t2", algorithms.MinWait{F: 1}, []sim.Value{0, 0, 0, 0}, []sim.ProcessID{1, 2, 3, 4}, 1}
	visited := func(e *Explorer) int {
		w, found, err := e.search(disagreementGoal, "disagreement")
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatal("uniform inputs cannot disagree (validity)")
		}
		if w.Stats.Truncated {
			t.Fatal("search truncated; raise MaxConfigs")
		}
		return w.Stats.Visited
	}
	plain := visited(d.explorer())
	por := visited(d.reduced(false, true))
	sym := visited(d.reduced(true, false))
	both := visited(d.reduced(true, true))
	if 2*por > plain {
		t.Fatalf("expected >= 2x node reduction from POR alone: por visited %d, plain visited %d", por, plain)
	}
	if 2*both > sym {
		t.Fatalf("expected >= 2x node reduction beyond symmetry alone: por+sym visited %d, sym visited %d", both, sym)
	}
	t.Logf("uniform Theorem 2 instance: plain %d, por %d (%.1fx), sym %d, por+sym %d (%.1fx beyond sym, %.1fx total)",
		plain, por, float64(plain)/float64(por), sym, both,
		float64(sym)/float64(both), float64(plain)/float64(both))
}

// TestPORDFSVerdictParity asserts verdict parity on the depth-first search
// order too: the reduction is a property of the action enumeration, not of
// the search order, so the DFS engine used by the Theorem 1 pipeline's
// condition-(C) default must reach the same verdicts reduced as plain.
func TestPORDFSVerdictParity(t *testing.T) {
	dfs := func(d diffInstance, por bool) *Explorer {
		return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
			Live:       d.live,
			MaxCrashes: d.crashes,
			Strategy:   "dfs",
			Workers:    1,
			POR:        por,
		})
	}
	for _, d := range porInstances() {
		t.Run(d.name, func(t *testing.T) {
			plainW, plainFound, err := dfs(d, false).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			porW, porFound, err := dfs(d, true).FindDisagreement()
			if err != nil {
				t.Fatal(err)
			}
			if plainW.Stats.Truncated || porW.Stats.Truncated {
				t.Fatal("instance not exhaustive")
			}
			if porFound != plainFound {
				t.Fatalf("dfs verdict diverged: por found=%t, plain found=%t", porFound, plainFound)
			}
			if porFound {
				testutil.RevalidateWitness(t, porW.Kind, porW.Run)
			}
		})
	}
}

// TestPORValenceParity asserts that valence classification — the engine
// behind E6 and the critical-step analysis — returns the same reachable
// decision values with and without the reduction (and with symmetry stacked
// on top), while visiting at most as many configurations.
func TestPORValenceParity(t *testing.T) {
	for _, d := range porInstances() {
		t.Run(d.name, func(t *testing.T) {
			plainVals, plainStats, err := d.explorer().Valence(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, symmetry := range []bool{false, true} {
				porVals, porStats, err := d.reduced(symmetry, true).Valence(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(plainVals) != len(porVals) {
					t.Fatalf("sym=%t: valence diverged: plain %v, por %v", symmetry, plainVals, porVals)
				}
				for i := range plainVals {
					if plainVals[i] != porVals[i] {
						t.Fatalf("sym=%t: valence diverged: plain %v, por %v", symmetry, plainVals, porVals)
					}
				}
				if porStats.Visited > plainStats.Visited {
					t.Fatalf("sym=%t: por valence visited %d > plain %d", symmetry, porStats.Visited, plainStats.Visited)
				}
			}
		})
	}
}

// TestPORStandsDownWithoutDeliverAll pins the Modes guard: the soundness
// argument needs DeliverAll among the enumerated modes (the commutation
// proof's second case prepends a full flush, and the oldest-on-singleton
// prune identifies DeliverOldest with DeliverAll), so with a custom Modes
// list lacking it the reduction must disable itself entirely — the POR
// search must be bit-identical to the plain one, not merely verdict-equal.
func TestPORStandsDownWithoutDeliverAll(t *testing.T) {
	modes := []DeliveryMode{DeliverNone, DeliverOldest}
	for _, d := range diffInstances() {
		t.Run(d.name, func(t *testing.T) {
			build := func(por bool) *Explorer {
				return New(sim.Restrict(d.alg, d.live), d.inputs, Options{
					Live:       d.live,
					MaxCrashes: d.crashes,
					Modes:      modes,
					Workers:    1,
					POR:        por,
				})
			}
			plainW, plainFound, plainVis, err := searchWithKeys(build(false), disagreementGoal, "disagreement")
			if err != nil {
				t.Fatal(err)
			}
			porW, porFound, porVis, err := searchWithKeys(build(true), disagreementGoal, "disagreement")
			if err != nil {
				t.Fatal(err)
			}
			if porFound != plainFound || porW.Stats != plainW.Stats {
				t.Fatalf("restricted-modes POR diverged: found=%t stats=%+v, plain found=%t stats=%+v",
					porFound, porW.Stats, plainFound, plainW.Stats)
			}
			if porVis.Len() != plainVis.Len() {
				t.Fatalf("restricted-modes POR visited %d keys, plain %d", porVis.Len(), plainVis.Len())
			}
			plainVis.Range(func(key uint64) bool {
				if !porVis.Contains(key) {
					t.Fatalf("restricted-modes POR missed visited key %#x", key)
				}
				return true
			})
		})
	}
}
