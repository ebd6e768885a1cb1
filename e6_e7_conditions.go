package kset

import (
	"context"
	"fmt"

	"kset/internal/algorithms"
	"kset/internal/explore"
	"kset/internal/fd"
	"kset/internal/sim"
)

// ExperimentBivalence demonstrates the substance of condition (C): FLP-style
// valence analysis of concrete consensus algorithms in small subsystems.
// For MinWait{F:1} on three processes it classifies the initial
// configurations of all binary proposal vectors: mixed vectors are bivalent
// (adversarial scheduling alone determines the decision), uniform vectors
// are univalent (Validity pins the outcome), and with one crash allowed the
// adversary can drive a bivalent configuration to an actual disagreement.
func ExperimentBivalence() (*Table, error) {
	return ExperimentBivalenceWith(nil)
}

// ExperimentBivalenceWith is ExperimentBivalence with an explicit search
// configuration; nil means default options.
func ExperimentBivalenceWith(search *Searcher) (*Table, error) {
	s := orDefault(search)
	// The three analyses per vector each need a fresh explorer over the same
	// subsystem with the Searcher's knobs.
	newExplorer := func(inputs []Value) *explore.Explorer {
		opts := s.exploreOptions(context.Background())
		opts.Live = []ProcessID{1, 2, 3}
		return explore.New(algorithms.MinWait{F: 1}, inputs, opts)
	}
	t := &Table{
		ID:    "E6",
		Title: "Condition (C) substance: valence of initial configurations (MinWait{F:1}, n=3)",
		Columns: []string{
			"inputs", "reachable decisions", "valence", "disagreement reachable", "forcing steps", "stalling steps",
		},
		Notes: []string{
			"bivalent initial configurations exist, reproducing FLP Lemma 2's shape for this protocol",
			"forcing steps commit a bivalent configuration to one value; stalling steps keep it bivalent (FLP Lemma 3's shape)",
		},
	}
	vectors := [][]Value{
		{0, 0, 0},
		{0, 0, 1},
		{0, 1, 1},
		{1, 1, 1},
	}
	for _, inputs := range vectors {
		e := newExplorer(inputs)
		vals, _, err := e.Valence(0)
		if err != nil {
			return nil, fmt.Errorf("E6: valence of %v: %w", inputs, err)
		}
		valence := "univalent"
		if len(vals) >= 2 {
			valence = "bivalent"
		}
		e2 := newExplorer(inputs)
		_, disagree, err := e2.FindDisagreement()
		if err != nil {
			return nil, fmt.Errorf("E6: disagreement of %v: %w", inputs, err)
		}
		e3 := newExplorer(inputs)
		an, err := e3.AnalyzeCriticalSteps()
		if err != nil {
			return nil, fmt.Errorf("E6: critical steps of %v: %w", inputs, err)
		}
		forcing, stalling := 0, 0
		for _, s := range an.Steps {
			if s.Forcing {
				forcing++
			}
			if len(s.Values) >= 2 {
				stalling++
			}
		}
		t.AddRow(fmt.Sprintf("%v", inputs), fmt.Sprintf("%v", vals), valence, disagree, forcing, stalling)
	}
	return t, nil
}

// ExperimentPartitionHistoryValidity is the machine check of Lemma 9:
// histories generated by the partition detector (Sigma'_k, Omega'_k) of
// Definition 7 satisfy every property of (Sigma_k, Omega_k) — intersection
// by pigeonhole over the k partitions, liveness, validity, and eventual
// leadership.
func ExperimentPartitionHistoryValidity() (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Lemma 9: partition-detector histories are admissible (Sigma_k, Omega_k) histories",
		Columns: []string{
			"n", "k", "failure pattern", "intersection", "liveness", "omega validity", "leadership", "clause-1 (Def 7)",
		},
	}
	cases := []struct {
		n, k  int
		crash map[ProcessID]int
	}{
		{5, 2, nil},
		{5, 2, map[ProcessID]int{2: 6}},
		{6, 3, nil},
		{6, 3, map[ProcessID]int{1: 0, 4: 9}},
		{7, 3, map[ProcessID]int{7: 3}},
		{8, 4, map[ProcessID]int{2: 5, 5: 11}},
	}
	for _, c := range cases {
		pattern := fd.NewPattern(c.n)
		for p, at := range c.crash {
			pattern = pattern.WithCrash(p, at)
		}
		partition := evenPartition(c.n, c.k)
		sigma := fd.NewPartitionSigmaOracle(partition, pattern)
		omega := fd.OmegaOracle{K: c.k, Pattern: pattern, GST: 15}
		oracle := fd.PartitionCombinedOracle{Sigma: sigma, Omega: omega}

		h := fd.NewHistory(c.n)
		for t0 := 0; t0 < 40; t0++ {
			for p := 1; p <= c.n; p++ {
				pid := ProcessID(p)
				if pattern.Crashed(pid, t0) {
					continue
				}
				h.Add(pid, t0, oracle.Query(pid, t0, nil))
			}
		}
		inter := fd.CheckSigmaIntersection(h, c.k) == nil
		live := fd.CheckSigmaLiveness(h, pattern) == nil
		valid := fd.CheckOmegaValidity(h, c.k) == nil
		lead := fd.CheckOmegaEventualLeadership(h, pattern) == nil
		clause1 := fd.CheckPartitionSigma(h, pattern, partition) == nil
		t.AddRow(c.n, c.k, pattern.String(), inter, live, valid, lead, clause1)
	}
	return t, nil
}

// evenPartition splits 1..n into k nearly equal consecutive groups.
func evenPartition(n, k int) [][]sim.ProcessID {
	groups := make([][]sim.ProcessID, k)
	next := 1
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		for j := 0; j < size; j++ {
			groups[i] = append(groups[i], sim.ProcessID(next))
			next++
		}
	}
	return groups
}
