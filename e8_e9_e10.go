package kset

import (
	"fmt"
	"slices"
	"time"

	"kset/internal/algorithms"
	"kset/internal/core"
	"kset/internal/network"
	"kset/internal/sim"
	"kset/internal/tindep"
)

// ExperimentTIndependence reproduces Section IV: the classic progress
// conditions expressed as T-independence, checked empirically against the
// protocols. f-resilient MinWait satisfies {|S| >= n-f}-independence
// (including the strong variant) and the Lemma 4 partition family; no
// waiting protocol is wait-free; DecideOwn is obstruction-free.
func ExperimentTIndependence() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "T-independence (Definition 6) of the protocols",
		Columns: []string{
			"algorithm", "family", "variant", "holds", "failing sets",
		},
	}
	n := 5
	inputs := DistinctInputs(n)

	fres, err := tindep.FResilient(n, 2)
	if err != nil {
		return nil, err
	}
	wf, err := tindep.WaitFree(n)
	if err != nil {
		return nil, err
	}
	lemma4 := tindep.Partition([]ProcessID{1, 2}, []ProcessID{3, 4, 5}) // n=5, f=3, l=2

	type check struct {
		alg     sim.Algorithm
		fam     tindep.Family
		opts    tindep.Options
		variant string
	}
	checks := []check{
		{algorithms.MinWait{F: 2}, fres, tindep.Options{}, "plain"},
		{algorithms.MinWait{F: 2}, fres, tindep.Options{Strong: true, WarmupSteps: 8}, "strong"},
		{algorithms.MinWait{F: 2}, wf, tindep.Options{MaxSteps: 2000}, "plain"},
		{algorithms.MinWait{F: 3}, lemma4, tindep.Options{}, "plain (Lemma 4)"},
		{algorithms.FLPKSet{F: 3}, lemma4, tindep.Options{}, "plain (Lemma 4)"},
		{algorithms.DecideOwn{}, tindep.ObstructionFree(n), tindep.Options{}, "plain"},
	}
	for _, c := range checks {
		rep, err := tindep.Check(c.alg, inputs, c.fam, c.opts)
		if err != nil {
			return nil, fmt.Errorf("E8: %s / %s: %w", c.alg.Name(), c.fam.Name, err)
		}
		t.AddRow(c.alg.Name(), c.fam.Name, c.variant, rep.Holds, len(rep.Failing))
	}
	return t, nil
}

// ExperimentCandidateVetting reproduces the Section III remark: feeding
// candidate algorithms to the Theorem 1 pipeline separates flawed ones
// (refuted with an explicit violation run) from conservative ones (a
// condition fails, typically (A)).
func ExperimentCandidateVetting() (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Theorem 1 as a vetting tool (Section III remark)",
		Columns: []string{
			"algorithm", "n", "k", "partition", "verdict", "detail",
		},
	}
	type vet struct {
		alg    sim.Algorithm
		n, k   int
		groups [][]ProcessID
		budget int
	}
	vets := []vet{
		{algorithms.DecideOwn{}, 5, 3, [][]ProcessID{{1}, {2}}, 0},
		{algorithms.FirstHeard{}, 6, 3, [][]ProcessID{{1, 2}, {3, 4}}, 1},
		{algorithms.MinWait{F: 3}, 5, 2, [][]ProcessID{{1, 2}}, 1}, // flawed at k=2 with f=3
		{algorithms.MinWait{F: 1}, 5, 2, [][]ProcessID{{1, 2}}, 1}, // correct for k=2: survives
		// Synchronous FloodSet dropped into the asynchronous model: its
		// rounds decouple from deliveries; the engine finds the split
		// (Theorem 2's "communication is asynchronous" hypothesis at work).
		{algorithms.RoundFlood{F: 2}, 5, 2, [][]ProcessID{{1, 2}}, 0},
	}
	for _, v := range vets {
		spec, err := core.NewPartitionSpec(v.n, v.k, v.groups)
		if err != nil {
			return nil, fmt.Errorf("E9: spec for %s: %w", v.alg.Name(), err)
		}
		rep, err := core.CheckImpossibility(core.Instance{
			Alg:             v.alg,
			Inputs:          DistinctInputs(v.n),
			Spec:            spec,
			DBarCrashBudget: v.budget,
			MaxConfigs:      60000,
			MaxSteps:        5000,
		})
		if err != nil {
			return nil, fmt.Errorf("E9: engine for %s: %w", v.alg.Name(), err)
		}
		verdict := "survives"
		detail := rep.Summary()
		if rep.Refuted {
			verdict = "flawed"
			detail = fmt.Sprintf("%s violation constructed", rep.Violation)
		}
		t.AddRow(v.alg.Name(), v.n, v.k, fmt.Sprintf("%v", v.groups), verdict, detail)
	}
	return t, nil
}

// ExperimentRuntimeAblation cross-checks the deterministic kernel against
// the goroutine runtime (E10): the same protocol under the same failure
// setting must satisfy the same agreement bound on both, and all values
// the goroutine runtime decides must be proposals. The table reports the
// kernel's decision count but only the invariant for the goroutine run:
// how many distinct values it decides depends on goroutine scheduling, so
// a count would make the table nondeterministic.
func ExperimentRuntimeAblation() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Runtime ablation: deterministic kernel vs goroutine network",
		Columns: []string{
			"algorithm", "n", "f (initial)", "bound", "kernel distinct",
			"concurrent within bound", "concurrent decided proposals", "ok",
		},
	}
	type c10 struct {
		alg   sim.Algorithm
		n     int
		dead  []ProcessID
		bound int
	}
	cases := []c10{
		{algorithms.MinWait{F: 2}, 6, []ProcessID{6}, 3},
		{algorithms.MinWait{F: 3}, 7, []ProcessID{2, 5}, 4},
		{algorithms.FLPKSet{F: 2}, 6, []ProcessID{3}, 1}, // L=4, floor(6/4)=1
		{algorithms.FLPKSet{F: 3}, 6, []ProcessID{1, 2}, 2},
	}
	for _, c := range cases {
		inputs := DistinctInputs(c.n)
		krun, err := Simulate(c.alg, inputs, SimOptions{InitialDead: c.dead})
		if err != nil {
			return nil, fmt.Errorf("E10: kernel %s: %w", c.alg.Name(), err)
		}
		kd := len(krun.DistinctDecisions())

		res, err := network.Run(c.alg, inputs, network.Options{
			InitialDead: c.dead,
			Timeout:     15 * time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("E10: concurrent %s: %w", c.alg.Name(), err)
		}
		decided := res.DistinctDecisions()
		within := len(decided) <= c.bound
		proposed := true
		for _, v := range decided {
			proposed = proposed && slices.Contains(inputs, v)
		}
		ok := kd <= c.bound && within && proposed && !res.TimedOut && len(krun.Blocked) == 0
		t.AddRow(c.alg.Name(), c.n, len(c.dead), c.bound, kd, within, proposed, ok)
	}
	return t, nil
}
