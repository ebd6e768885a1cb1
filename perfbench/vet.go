package main

import (
	"context"
	"fmt"

	"kset"
	"kset/internal/core"
	"kset/internal/explore"
	"kset/internal/sched"
	"kset/internal/sim"
)

// The vet probe of the traced run vets candidate algorithms with Theorem 1:
// each check runs the whole pipeline (solo runs, the condition-(C) search in
// D-bar, pasting and the (B)/(D) indistinguishability checks) on one
// Theorem 2 cell with distinct inputs, the default DFS and a crash budget of
// one. Core's solo runs and pasting and sim's recorded runs dominate; explore
// visits tens of states. It is not a gated workload: on the machine the
// benchmark was tuned on, its op_p90_ms and states_per_s moved 25-27% over
// ten 30 s runs. serve's cold impossibility jobs run the same pipeline end to
// end.
type vet struct {
	search *kset.Searcher
	cells  []cell
	insts  []kset.ImpossibilityInstance
	order  *rounds
}

func newVet(seed uint64) (*vet, error) {
	s, err := kset.NewSearcher(kset.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	v := &vet{search: s, cells: vetCells()}
	for _, c := range v.cells {
		alg, err := kset.NewAlgorithm(c.Alg, c.F)
		if err != nil {
			return nil, err
		}
		spec, err := kset.Theorem2Partition(c.N, c.F, c.K)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		v.insts = append(v.insts, kset.ImpossibilityInstance{Alg: alg, Inputs: kset.DistinctInputs(c.N), Spec: spec, DBarCrashBudget: 1})
	}
	// Warm up on every cell, which also proves each one refutes.
	for k := range v.cells {
		if _, _, err := v.check(k, nil, 0, -1); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	v.order = newRounds(newRand(seed), len(v.cells))
	return v, nil
}

// check runs the Theorem 1 pipeline on cell k and verifies the refutation.
func (v *vet) check(k int, tr *tracer, root, op int) (opOut, *kset.ImpossibilityReport, error) {
	id := tr.begin("core.check", root, op)
	rep, err := v.search.CheckImpossibility(context.Background(), v.insts[k])
	if err != nil {
		tr.end(id, 0)
		return opOut{}, nil, fmt.Errorf("%v: %w", v.cells[k], err)
	}
	tr.end(id, rep.CondCStats.Visited)
	if err := checkReport(v.cells[k], rep); err != nil {
		return opOut{}, nil, err
	}
	return opOut{states: rep.CondCStats.Visited}, rep, nil
}

// checkReport accepts only a complete refutation: all four conditions
// established by an untruncated search, and a pasted run whose decision
// census exceeds k (k-agreement) or that leaves a process blocked
// (termination).
func checkReport(c cell, rep *kset.ImpossibilityReport) error {
	for i, st := range []core.Status{rep.CondA, rep.CondB, rep.CondC, rep.CondD} {
		if st != core.StatusSatisfied {
			return fmt.Errorf("%v: condition (%c) %s: %s", c, 'A'+i, st, rep.Summary())
		}
	}
	if !rep.Refuted || rep.CondCStats.Truncated {
		return fmt.Errorf("%v: not refuted (truncated %v): %s", c, rep.CondCStats.Truncated, rep.Summary())
	}
	switch rep.Violation {
	case "k-agreement":
		if len(rep.DistinctDecided) <= c.K {
			return fmt.Errorf("%v: k-agreement violation with %d decisions", c, len(rep.DistinctDecided))
		}
	case "termination":
		if len(rep.BlockedInPasted) == 0 {
			return fmt.Errorf("%v: termination violation with no blocked process", c)
		}
	default:
		return fmt.Errorf("%v: unknown violation %q", c, rep.Violation)
	}
	return nil
}

// attribute re-runs the pipeline's sub-steps on a checked cell outside the
// op, under one "attrib" span: the solo runs of the decider groups, the
// condition-(C) search in D-bar with core's options, and the (B)/(D)
// indistinguishability checks on the report's runs. Their times are
// attributed to sim, explore and sim; what remains of the check is core's.
func (v *vet) attribute(k int, rep *kset.ImpossibilityReport, tr *tracer, op int) error {
	inst, c := v.insts[k], v.cells[k]
	aroot := tr.begin("attrib", 0, op)
	defer tr.end(aroot, 0)

	id := tr.begin("sim.solo", aroot, op)
	events := 0
	for _, g := range inst.Spec.Groups {
		run, err := sim.Execute(inst.Alg, inst.Inputs, sched.Solo(inst.Spec.N, g, nil), sim.Options{MaxSteps: inst.MaxSteps})
		if err != nil {
			tr.end(id, events)
			return fmt.Errorf("%v: solo run: %w", c, err)
		}
		events += len(run.Events)
	}
	tr.end(id, events)

	dbar := inst.Spec.DBar()
	id = tr.begin("explore.subsystem", aroot, op)
	ex := explore.New(sim.Restrict(inst.Alg, dbar), inst.Inputs, explore.Options{
		Live: dbar, MaxCrashes: inst.DBarCrashBudget, MaxConfigs: inst.MaxConfigs, Strategy: "dfs", Workers: 1,
	})
	w, found, err := ex.FindDisagreement()
	visited := 0
	if w != nil {
		visited = w.Stats.Visited
	}
	if err == nil && !found {
		w, found, err = ex.FindBlocking()
		if w != nil {
			visited += w.Stats.Visited
		}
	}
	tr.end(id, visited)
	if err != nil || !found || visited != rep.CondCStats.Visited {
		return fmt.Errorf("%v: D-bar re-run found=%v visited=%d (report %d): %v", c, found, visited, rep.CondCStats.Visited, err)
	}

	id = tr.begin("sim.indist", aroot, op)
	ok := sim.IndistinguishableForAll(rep.DBarWitness.Run, rep.Pasted, dbar)
	for i, g := range inst.Spec.Groups {
		ok = ok && sim.IndistinguishableForAll(rep.SoloRuns[i], rep.Pasted, g)
	}
	tr.end(id, len(rep.Pasted.Events))
	if !ok {
		return fmt.Errorf("%v: pasted run distinguishable on re-check", c)
	}
	return nil
}

// probeVet runs one round over every cell traced, with the sub-steps
// attributed, and derives the core, explore-subsystem and sim metrics.
func probeVet(seed uint64, tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	v, err := newVet(seed)
	if err != nil {
		return 0, 0, err
	}
	for i := range v.cells {
		k := v.order.next()
		root := tr.begin("op", 0, i)
		out, rep, err := v.check(k, tr, root, i)
		tr.end(root, out.states)
		attempted++
		if err == nil {
			err = v.attribute(k, rep, tr, i)
		}
		if err != nil {
			failed++
			fmt.Printf("  failed vet probe op: %v\n", err)
		}
	}
	// The sub-step times are means over the round, so the parts add up to
	// core.check_ms: most cells have k = 1 and no solo runs at all, which
	// would leave a median solo time at zero.
	check, _ := tr.perOp("core.check")
	solo, _ := tr.perOp("sim.solo")
	sub, _ := tr.perOp("explore.subsystem")
	ind, events := tr.perOp("sim.indist")
	var n, checks, solos, subs, inds float64
	var evs []float64
	for op, c := range check {
		if _, ok := ind[op]; !ok {
			continue // failed op
		}
		n++
		checks += c
		solos += solo[op]
		subs += sub[op]
		inds += ind[op]
		evs = append(evs, float64(events[op]))
	}
	m["core.check_ms"] = checks / n
	m["core.self_ms"] = (checks - solos - subs - inds) / n
	m["sim.solo_ms"] = solos / n
	m["explore.subsystem_ms"] = subs / n
	m["sim.indist_ms"] = inds / n
	m["sim.pasted_events"] = median(evs)
	return attempted, failed, nil
}
