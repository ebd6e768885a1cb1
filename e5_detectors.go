package kset

import (
	"context"
	"fmt"

	"kset/internal/algorithms"
	"kset/internal/core"
	"kset/internal/fd"
	"kset/internal/sched"
	"kset/internal/sim"
)

// E5Params parameterizes the failure-detector border experiment.
type E5Params struct {
	MinN, MaxN int
	MaxConfigs int
	// Search configures the engine searches; nil means default options
	// (equivalent to NewSearcher(Options{})).
	Search *Searcher
}

// DefaultE5Params returns the sweep used by cmd/experiments and benchmarks.
func DefaultE5Params() E5Params {
	return E5Params{MinN: 5, MaxN: 6, MaxConfigs: 80000}
}

// ExperimentFailureDetectorBorder reproduces Theorem 10 and Corollary 13:
// with the failure-detector family (Sigma_k, Omega_k),
//
//   - k = 1 is solvable: the ballot protocol decides (consensus from
//     (Sigma, Omega), citing Delporte-Gallet et al.);
//   - 2 <= k <= n-2 is impossible: the Theorem 1 engine, instantiated with
//     the partition detector (Sigma'_k, Omega'_k) of Definition 7, refutes
//     the Sigma_k-based candidate algorithm, and the pasted run's detector
//     history is machine-checked to satisfy Definitions 4 and 5 (Lemma 9 /
//     Lemma 11);
//   - k = n-1 is solvable: reproduced with the classic (n-2)-resilient
//     protocol (decide min of 2 values) as the documented substitute for
//     Bonnet-Raynal's Sigma_{n-1} algorithm (see DESIGN.md).
func ExperimentFailureDetectorBorder(p E5Params) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Theorem 10 / Corollary 13: k-set agreement with (Sigma_k, Omega_k)",
		Columns: []string{
			"n", "k", "paper", "outcome", "merged R(D,D-bar) distinct", "history admissible", "detail",
		},
		Notes: []string{
			"'paper' is the paper's verdict for (Sigma_k, Omega_k): solvable iff k = 1 or k = n-1 (Corollary 13)",
			"impossible rows are Theorem 1 refutations of the Sigma_k candidate under partition histories",
			"k = n-1 runs the Sigma_{n-1} singleton-quorum protocol (unconditionally safe; live in environments whose histories eventually provide the smallest correct process's singleton — see DESIGN.md, Substitutions)",
		},
	}
	// Every (n, k) cell is independent — each builds its own failure
	// pattern, oracles, and engine instance — so the sweep fans out over the
	// SweepWorkers pool with per-cell result slots preserving row order.
	type cell struct{ n, k int }
	var cells []cell
	for n := p.MinN; n <= p.MaxN; n++ {
		for k := 1; k <= n-1; k++ {
			cells = append(cells, cell{n, k})
		}
	}
	rows, err := sweepRows(len(cells), func(i int) ([]string, error) {
		n, k := cells[i].n, cells[i].k
		switch {
		case k == 1:
			run, err := Simulate(algorithms.SigmaOmega{}, DistinctInputs(n), SimOptions{
				Detector: DetectorSpec{Kind: "sigma-omega", K: 1},
			})
			if err != nil {
				return nil, fmt.Errorf("E5: consensus n=%d: %w", n, err)
			}
			d := len(run.DistinctDecisions())
			outcome := "decided (consensus)"
			if d != 1 || len(run.Blocked) > 0 {
				outcome = "FAILED"
			}
			return rowOf(n, k, "solvable", outcome, "-", "-", fmt.Sprintf("%d distinct", d)), nil
		case k == n-1:
			// Sigma_{n-1}-based protocol under an environment whose
			// histories eventually provide the smallest correct
			// process's singleton quorum (admissible; see the
			// SingletonQuorum docs for the safety proof and the
			// liveness condition).
			pattern := fd.NewPattern(n).WithInitiallyDead(ProcessID(n))
			oracle := sched.OracleFunc(func(p sim.ProcessID, tm int, c *sim.Configuration) sim.FDValue {
				correct := pattern.Correct()
				if tm >= 3 && len(correct) > 0 && p == correct[0] {
					return fd.NewTrustSet(p)
				}
				return fd.NewTrustSet(pattern.Alive(tm)...)
			})
			cp := sched.CrashPlan{InitialDead: []sim.ProcessID{sim.ProcessID(n)}}
			s := &sched.Fair{Crash: cp, Oracle: oracle, Stop: sched.AllCorrectDecided(cp)}
			run, err := sim.Execute(algorithms.SingletonQuorum{}, DistinctInputs(n), s, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("E5: (n-1)-set n=%d: %w", n, err)
			}
			d := len(run.DistinctDecisions())
			outcome := "decided"
			if d > k || len(run.Blocked) > 0 {
				outcome = "FAILED"
			}
			return rowOf(n, k, "solvable", outcome, "-", "-",
				fmt.Sprintf("%d distinct via Sigma_{n-1} singleton-quorum protocol (1 crash)", d)), nil
		default:
			row, err := theorem10Row(orDefault(p.Search), n, k, p.MaxConfigs)
			if err != nil {
				return nil, fmt.Errorf("E5: theorem 10 n=%d k=%d: %w", n, k, err)
			}
			return row, nil
		}
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// theorem10Row executes the full Theorem 10 construction for one (n, k).
func theorem10Row(s *Searcher, n, k, maxConfigs int) ([]string, error) {
	rep, merged, err := s.Theorem10Construction(context.Background(), n, k, maxConfigs)
	if err != nil {
		return nil, err
	}
	outcome := "NOT REFUTED"
	detail := rep.Summary()
	if rep.Refuted {
		outcome = "refuted"
		detail = fmt.Sprintf("%s violation, %d distinct in pasted run", rep.Violation, len(rep.DistinctDecided))
	}
	mergedStr := "-"
	if merged != nil {
		mergedStr = fmt.Sprintf("%d", len(merged.Distinct))
	}
	admissible := "-"
	if rep.Pasted != nil {
		admissible = fmt.Sprintf("%t", pastedHistoryAdmissible(rep, k))
	}
	return []string{
		fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), "impossible", outcome, mergedStr, admissible, detail,
	}, nil
}

// Theorem10Construction runs the Theorem 1 pipeline in the Theorem 10
// setting for the Sigma_k candidate algorithm: D-bar = {p_1..p_{n-k+1}},
// singleton decider groups, partition detector histories for the solo runs
// (Definition 7), an alive-set Sigma restricted to D-bar plus a fixed
// leader pair for the subsystem exploration (the detector Gamma of the
// paper's condition (C) discussion), and Lemma 12's merged run over all k
// partitions. It returns the engine report and the merged-run report. It
// searches with the default Options; the Searcher method takes a
// configuration and a context.
func Theorem10Construction(n, k, maxConfigs int) (*core.Report, *core.MergedGroupsReport, error) {
	return orDefault(nil).Theorem10Construction(context.Background(), n, k, maxConfigs)
}

// Theorem10Construction runs the Theorem 10 pipeline with this Searcher's
// knobs; see the package-level function for the construction's anatomy.
func (s *Searcher) Theorem10Construction(ctx context.Context, n, k, maxConfigs int) (*core.Report, *core.MergedGroupsReport, error) {
	spec, err := core.Theorem10Partition(n, k)
	if err != nil {
		return nil, nil, err
	}
	all := spec.AllGroups() // D_1..D_{k-1}, D-bar (= the paper's D_k)
	dbar := spec.DBar()

	soloOracle := func(i int, g []sim.ProcessID) sched.Oracle {
		pattern := fd.NewPattern(n).WithInitiallyDead(sim.Complement(n, g)...)
		return fd.PartitionCombinedOracle{
			Sigma: fd.NewPartitionSigmaOracle(all, pattern),
			Omega: fd.OmegaOracle{K: k, Pattern: pattern, GST: 0},
		}
	}

	// Gamma for <D-bar>: quorums are the currently-alive members of D-bar
	// (a valid Sigma history of the restricted model), leaders a fixed
	// k-set intersecting D-bar in two processes (compatible with Omega'_k,
	// cf. the proof of condition (C) in Theorem 10).
	leaders := gammaLeaders(n, k, dbar)
	dbarOracle := sched.OracleFunc(func(p sim.ProcessID, t int, c *sim.Configuration) sim.FDValue {
		var alive []sim.ProcessID
		for _, q := range dbar {
			if c == nil || !c.Crashed(q) {
				alive = append(alive, q)
			}
		}
		return fd.Combined{Quorum: fd.NewTrustSet(alive...), Leaders: leaders}
	})

	// POR is a sound no-op here (the Gamma oracle disables pruning), and the
	// Searcher stamps the full knob set — including Workers and Faults,
	// which the legacy global-reading path silently dropped on this route.
	rep, err := s.CheckImpossibility(ctx, core.Instance{
		Alg:             algorithms.QuorumMin{},
		Inputs:          DistinctInputs(n),
		Spec:            spec,
		SoloOracle:      soloOracle,
		DBarCrashBudget: 1, // Theorem 10 allows up to |D-bar|-1; one suffices
		DBarOracle:      dbarOracle,
		MaxConfigs:      maxConfigs,
	})
	if err != nil {
		return nil, nil, err
	}

	// Lemma 12: the merged run over all k partitions (R(D, D-bar) != {}).
	merged, err := core.BuildMergedGroupsRun(algorithms.QuorumMin{}, DistinctInputs(n), all, func(i int, g []sim.ProcessID) sched.Oracle {
		return soloOracle(i, g)
	}, 0)
	if err != nil {
		return rep, nil, nil // engine result stands; merged run optional
	}
	return rep, merged, nil
}

// gammaLeaders builds the stable leader set of the Gamma detector: a k-set
// intersecting D-bar in exactly two processes (p_s, p_t) padded with the
// singleton-group processes.
func gammaLeaders(n, k int, dbar []sim.ProcessID) fd.Leaders {
	ids := make([]sim.ProcessID, 0, k)
	if len(dbar) > 0 {
		ids = append(ids, dbar[0])
	}
	if len(dbar) > 1 {
		ids = append(ids, dbar[1])
	}
	for p := n; p >= 1 && len(ids) < k; p-- {
		pid := sim.ProcessID(p)
		dup := false
		for _, q := range ids {
			if q == pid {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, pid)
		}
	}
	return fd.NewLeaders(ids...)
}

// pastedHistoryAdmissible machine-checks that the detector history of the
// pasted run satisfies the Sigma_k intersection and liveness properties and
// Omega_k validity — the content of Lemma 9 ("(Sigma_k, Omega_k) is weaker
// than (Sigma'_k, Omega'_k)") and of Lemma 11's claim that pasting yields a
// legal partitioning history.
func pastedHistoryAdmissible(rep *core.Report, k int) bool {
	h := fd.HistoryFromRun(rep.Pasted)
	pattern := fd.PatternFromRun(rep.Pasted)
	if err := fd.CheckSigmaIntersection(h, k); err != nil {
		return false
	}
	if err := fd.CheckSigmaLiveness(h, pattern); err != nil {
		return false
	}
	if err := fd.CheckOmegaValidity(h, k); err != nil {
		return false
	}
	return true
}
